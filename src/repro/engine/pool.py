"""Spawn-safe, fault-tolerant process pool for batch candidate evaluation.

The pool exists because ``predict_latency`` and ``simulate_cycles`` are
pure CPU-bound Python: a tune run evaluates hundreds of candidates per
generation and the GIL serialises them on one core.  Workers are started
with the ``spawn`` method (safe on every platform, no inherited state)
and receive the evaluation *context* — the list of physical mappings and
the hardware parameters — exactly once, pickled into the initializer.
Work items come in two shapes.  The scalar path ships tiny picklable
descriptors ``(mapping_index, schedule_dict, measure)``; workers rebuild
the ``Schedule`` from its descriptor and look the mapping up by index,
so per-task payloads stay a few hundred bytes regardless of mapping
complexity.  The vectorized path ships *group chunks* ``(mapping_index,
ScheduleBatch, measure)`` — one mapping's schedules encoded as numpy
arrays — and workers evaluate the whole chunk through
``batch_predict`` / ``batch_simulate``, rebuilding (and caching) the
mapping's :class:`MappingFeatures` table on first use.  No per-candidate
objects ever cross the process boundary on that path.  Row-native chunks
(from the engine's ``predict_rows`` / ``measure_rows``) are the same
shape with ``describes=None``: plain contiguous ndarray buffers, no
strings at all — workers render the describe half of each jitter key
lazily inside ``batch_simulate`` for exactly the rows that need it.

**Failure is routine.**  Every task crosses the boundary as ``(ordinal,
attempt, item)`` and comes back as a structured outcome — ``("ok",
result, obs)`` or ``("err", message, obs)`` — so one raising task can
never abort a whole batch.  The parent runs each batch under a deadline
(``FaultPolicy.eval_timeout_s`` via ``map_async`` + polling), watches
the worker processes' exit codes while waiting, and reacts per failure
mode: task errors are retried with exponential backoff up to
``max_retries`` and then *quarantined* (re-run inline in the parent
through the same pure evaluator); a dead or wedged pool is terminated
and respawned from the original context payload; after
``max_pool_deaths`` pool deaths the pool *degrades* and evaluates
everything inline from then on.  Determinism survives all of it:
evaluators are pure functions of the candidate and results are
reassembled positionally, so a fault-ridden run returns byte-identical
results to a fault-free serial run.  The ``engine.fault.*`` counters
(mirrored in the always-on :attr:`WorkerPool.fault_stats` tally) record
retries, timeouts, worker deaths, respawns, quarantines and degradation
for the flight recorder.

Deterministic fault *injection* for tests rides the same task envelope:
when a :class:`~repro.engine.faults.FaultPlan` is shipped to the
workers, each task checks its (ordinal, attempt) against the plan before
evaluating and kills its process, hangs, or raises on cue.  Production
runs ship no plan and skip the check entirely.

**Observability crosses the process boundary.**  When the parent has obs
enabled at pool creation, workers enable their own local tracer/metrics
registry and every task returns an *obs payload* next to its result:
the task's span tree (:meth:`Span.to_payload` dicts) and the worker
registry's counter/histogram *deltas* for exactly that task (via the
atomic ``snapshot()``/``diff()`` pair, so a retried or re-reported task
can never double-count).  The payload is built in a ``finally`` block,
so a raising task still drains its tracer and ships its spans home with
an ``error`` tag on the roots — worker activity never leaks into the
next task's payload and parent counter totals stay worker-count- and
fault-invariant.  The parent merges payloads as results arrive: spans
are re-identified into the parent tracer, re-parented under the caller's
live span, tagged with a per-worker *lane* (assigned in pid order of
first appearance) and shifted onto the parent's clock via the wall/perf
clock-offset pairing; metric deltas fold into the parent registry.
When obs is disabled nothing is captured and the task payload shape is
unchanged — the disabled path costs one global check.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import time
from typing import Any, Callable, Sequence

from repro.engine.faults import (
    FaultPlan,
    FaultPolicy,
    InjectedFault,
    PoolFailure,
    fresh_fault_stats,
)
from repro.mapping.physical import PhysicalMapping
from repro.model.batch_model import batch_predict
from repro.model.hardware_params import HardwareParams
from repro.model.perf_model import predict_latency
from repro.obs import events as _obs_events
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.schedule.features import MappingFeatures, ScheduleBatch, derive_batch
from repro.schedule.lowering import lower_schedule
from repro.schedule.schedule import Schedule
from repro.sim.batch_timing import batch_simulate
from repro.sim.timing import simulate_cycles

__all__ = ["WorkerPool"]

#: Worker-global evaluation context set by the initializer:
#: (physical mappings, hardware params).
_CONTEXT: tuple[list[PhysicalMapping], HardwareParams] | None = None

#: Worker-global fault-injection script (tests only; None in production).
_FAULT_PLAN: FaultPlan | None = None

#: Worker-global feature-table cache: mapping index -> MappingFeatures.
#: Feature tables are pure functions of the context's mappings, so each
#: worker derives one at most once per mapping for the pool's lifetime.
_FEATURES: dict[int, MappingFeatures] = {}

#: Exit code of a FaultPlan-killed worker (distinguishable from SIGTERM
#: in test output; the parent only cares that the process died).
_KILL_EXIT_CODE = 87


def _init_worker(payload: bytes, obs_enabled: bool, events_enabled: bool = False) -> None:
    global _CONTEXT, _FAULT_PLAN
    physical, hardware, plan = pickle.loads(payload)
    _CONTEXT = (physical, hardware)
    _FAULT_PLAN = plan
    _FEATURES.clear()
    if obs_enabled:
        _obs_trace.enable_tracing()
    if events_enabled:
        # Worker-side events buffer locally and ship home per task in the
        # obs payload; the parent re-publishes them via EventBus.adopt.
        _obs_events.enable_events()
        _obs_events.get_bus().buffering = True


def _context() -> tuple[list[PhysicalMapping], HardwareParams]:
    if _CONTEXT is None:
        raise RuntimeError("worker used before its context was initialised")
    return _CONTEXT


#: (pid, clock_offset_s, span payloads, metric deltas, events) — one per
#: task when obs and/or the event bus is on in the worker, else None.
ObsPayload = tuple[int, float, list[dict], list[dict], list[dict]]

#: What a worker returns per task: ("ok", result, obs) | ("err", msg, obs).
TaskOutcome = tuple[str, Any, ObsPayload | None]

#: What the parent ships per task: (ordinal, attempt, item).
Task = tuple[int, int, Any]


def _run_task(fn: Callable[[Any], Any], task: Task) -> TaskOutcome:
    """Run one task in a worker: inject scripted faults, capture obs,
    and wrap the result (or the failure) in a structured outcome.

    The obs payload is assembled in ``finally``: a raising ``fn`` still
    drains the worker tracer (no spans leak into the next task) and its
    spans ship home with an ``error`` tag on the payload roots, so the
    parent's merged funnel counts stay worker-count-invariant even under
    faults.
    """
    seq, attempt, item = task
    plan = _FAULT_PLAN
    action = plan.action_for(seq, attempt) if plan is not None else None
    if action == "kill":
        os._exit(_KILL_EXIT_CODE)
    elif action == "hang":
        time.sleep(plan.hang_s)

    if not _obs_trace.tracing_enabled() and not _obs_events._enabled:
        try:
            if action == "raise":
                raise InjectedFault(f"injected fault on task {seq}")
            return "ok", fn(item), None
        except Exception as exc:
            return "err", f"{type(exc).__name__}: {exc}", None

    tracer = _obs_trace.get_tracer()
    registry = _obs_metrics.get_registry()
    bus = _obs_events.get_bus()
    tracer.drain()  # anything left over belongs to no task
    bus.drain()
    base = registry.snapshot()
    status, value = "ok", None
    try:
        if action == "raise":
            raise InjectedFault(f"injected fault on task {seq}")
        value = fn(item)
    except Exception as exc:
        status, value = "err", f"{type(exc).__name__}: {exc}"
    finally:
        spans = [s.to_payload() for s in tracer.drain()]
        if status == "err":
            local_ids = {s["span_id"] for s in spans}
            for s in spans:
                if s.get("parent_id") not in local_ids:
                    s["attrs"]["error"] = value
        payload = (
            os.getpid(),
            _obs_trace.clock_offset_s(),
            spans,
            registry.diff(base),
            bus.drain() if _obs_events._enabled else [],
        )
    return status, value, payload


def _eval_item_with(
    physical: Sequence[PhysicalMapping],
    hw: HardwareParams,
    item: tuple[int, dict, bool],
) -> tuple[float, float | None]:
    """Evaluate one candidate: (predicted_us, measured_us?).  Pure
    function of (context, item) — runs identically in a worker or, for
    quarantine/degraded evaluation, inline in the parent."""
    mapping_index, schedule_dict, measure = item
    with _obs_trace.span("worker.eval", mapping=mapping_index, measure=measure):
        sched = lower_schedule(
            physical[mapping_index], Schedule.from_dict(schedule_dict)
        )
        predicted = predict_latency(sched, hw).total_us
        measured = simulate_cycles(sched, hw).total_us if measure else None
    return predicted, measured


def _eval_group_with(
    physical: Sequence[PhysicalMapping],
    hw: HardwareParams,
    features_cache: dict[int, MappingFeatures],
    item: tuple[int, ScheduleBatch, bool],
) -> list[tuple[float, float | None]]:
    """Evaluate one mapping's schedule-batch chunk through the array path."""
    mapping_index, batch, measure = item
    with _obs_trace.span(
        "worker.eval_group",
        mapping=mapping_index,
        candidates=len(batch),
        measure=measure,
    ):
        features = features_cache.get(mapping_index)
        if features is None:
            features = MappingFeatures.from_physical(physical[mapping_index])
            features_cache[mapping_index] = features
        quantities = derive_batch(features, batch)
        prediction = batch_predict(features, batch, hw, quantities=quantities)
        if not measure:
            return [(float(p), None) for p in prediction.total_us]
        timing = batch_simulate(features, batch, hw, quantities=quantities)
        return [
            (float(p), float(m))
            for p, m in zip(prediction.total_us, timing.total_us)
        ]


def _eval_item(task: Task) -> TaskOutcome:
    physical, hw = _context()
    return _run_task(lambda item: _eval_item_with(physical, hw, item), task)


def _eval_group(task: Task) -> TaskOutcome:
    physical, hw = _context()
    return _run_task(
        lambda item: _eval_group_with(physical, hw, _FEATURES, item), task
    )


class WorkerPool:
    """A fault-tolerant process pool bound to one (mappings, hardware)
    context.

    The context payload is kept pickled for the pool's lifetime so a
    crashed pool can be respawned with the exact original context, and
    the raw objects are kept too so quarantined items and a degraded
    pool evaluate inline in the parent through the same pure evaluators.
    ``fault_stats`` tallies every recovery action with obs on or off;
    the ``engine.fault.*`` counters mirror it into the flight recorder.
    """

    def __init__(
        self,
        physical: Sequence[PhysicalMapping],
        hardware: HardwareParams,
        n_workers: int,
        policy: FaultPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        if n_workers < 2:
            raise ValueError("WorkerPool needs n_workers >= 2; use in-process execution")
        self.n_workers = n_workers
        self.policy = policy or FaultPolicy()
        self.fault_plan = fault_plan
        #: Obs state captured at creation: workers enable their local
        #: tracer in the initializer, so toggling obs after the pool is
        #: up does not retroactively change what workers collect.
        self.obs_enabled = _obs_trace.tracing_enabled()
        #: Same capture-at-creation rule for the event bus.
        self.events_enabled = _obs_events.events_enabled()
        #: pid -> lane number, in order of first appearance (lane 0 is
        #: the parent process; workers get 1..n).  Survives respawns, so
        #: replacement workers get fresh lanes.
        self._lanes: dict[int, int] = {}
        self._physical = list(physical)
        self._hardware = hardware
        #: Parent-side feature tables for inline (quarantine/degraded)
        #: group evaluation; derived lazily, same pure derivation as the
        #: workers'.
        self._features: dict[int, MappingFeatures] = {}
        self._payload = pickle.dumps(
            (self._physical, hardware, fault_plan),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        #: Next task ordinal; counts first submissions in order (retries
        #: keep their original ordinal), so FaultPlan scripts are stable.
        self._task_seq = 0
        self._pool_deaths = 0
        self.degraded = False
        self.fault_stats = fresh_fault_stats()
        #: (start_ordinal, size) per submitted batch — deterministic for
        #: a fixed tune; lets tests aim FaultPlan actions at real tasks.
        self.batch_log: list[tuple[int, int]] = []
        self._pool: multiprocessing.pool.Pool | None = None
        self._workers: list[Any] = []
        self._spawn()

    def _spawn(self) -> None:
        # Counted for the first spawn and every respawn: each one costs
        # a fresh set of interpreter starts and context unpickles.
        _obs_metrics.counter("engine.pool.spawns").inc()
        self._pool = multiprocessing.get_context("spawn").Pool(
            processes=self.n_workers,
            initializer=_init_worker,
            initargs=(self._payload, self.obs_enabled, self.events_enabled),
        )
        # The worker Process objects, held for death detection.  A pool
        # worker never exits on its own (no maxtasksperchild), so any
        # exit code here means a crashed worker and a lost in-flight
        # task the pool would otherwise wait on forever.
        self._workers = list(getattr(self._pool, "_pool", []))

    # -- obs merge ------------------------------------------------------
    def lane_of(self, pid: int) -> int:
        lane = self._lanes.get(pid)
        if lane is None:
            lane = self._lanes[pid] = len(self._lanes) + 1
        return lane

    def _merge_payloads(self, payloads: Sequence[ObsPayload | None]) -> None:
        """Adopt worker span trees and metric deltas into the parent's
        tracer/registry, under the caller's live span."""
        tracer = _obs_trace.get_tracer()
        registry = _obs_metrics.get_registry()
        parent_id = _obs_trace.current_span_id()
        parent_offset = _obs_trace.clock_offset_s()
        bus = _obs_events.get_bus()
        for payload in payloads:
            if payload is None:
                continue
            pid, worker_offset, spans, deltas, events = payload
            shift_s = worker_offset - parent_offset
            lane = self.lane_of(pid)
            tracer.merge(spans, parent_id=parent_id, lane=lane, shift_s=shift_s)
            registry.merge(deltas)
            if events and _obs_events._enabled:
                bus.adopt(events, shift_s=shift_s, lane=lane)

    # -- evaluation -----------------------------------------------------
    def evaluate(
        self, items: Sequence[tuple[int, dict, bool]]
    ) -> list[tuple[float, float | None]]:
        """Evaluate a batch; results in submission order."""
        if not items:
            return []
        chunksize = max(1, math.ceil(len(items) / (self.n_workers * 4)))
        return self._run_batch(_eval_item, items, chunksize, self._inline_item)

    def evaluate_groups(
        self, groups: Sequence[tuple[int, ScheduleBatch, bool]]
    ) -> list[list[tuple[float, float | None]]]:
        """Evaluate schedule-batch chunks; one result list per chunk, in
        submission order.  Each chunk is already a unit of parallel work
        (the engine sizes them to the pool), so ``chunksize=1``."""
        if not groups:
            return []
        return self._run_batch(_eval_group, groups, 1, self._inline_group)

    def _inline_item(self, item: tuple[int, dict, bool]):
        return _eval_item_with(self._physical, self._hardware, item)

    def _inline_group(self, item: tuple[int, ScheduleBatch, bool]):
        return _eval_group_with(
            self._physical, self._hardware, self._features, item
        )

    # -- the fault-tolerant batch runner --------------------------------
    def _run_batch(
        self,
        fn: Callable[[Task], TaskOutcome],
        items: Sequence[Any],
        chunksize: int,
        inline_fn: Callable[[Any], Any],
    ) -> list[Any]:
        """Run one batch to completion, surviving task errors, worker
        deaths and hangs.  Every item ends with a result — from a
        worker, from a quarantined inline re-run, or from degraded
        inline evaluation — reassembled in submission order."""
        n = len(items)
        seqs = list(range(self._task_seq, self._task_seq + n))
        self._task_seq += n
        self.batch_log.append((seqs[0], n))
        attempts = [0] * n
        results: list[Any] = [None] * n
        pending = list(range(n))
        retry_round = 0
        while pending:
            if self.degraded:
                for i in pending:
                    results[i] = inline_fn(items[i])
                break
            # Quarantine anything past its retry budget: re-run inline
            # through the same pure evaluator, in submission order.
            retriable: list[int] = []
            for i in pending:
                if attempts[i] > self.policy.max_retries:
                    results[i] = self._quarantine(inline_fn, items[i], seqs[i])
                else:
                    retriable.append(i)
            pending = retriable
            if not pending:
                break
            batch = [(seqs[i], attempts[i], items[i]) for i in pending]
            try:
                outcomes = self._map_with_deadline(fn, batch, chunksize)
            except PoolFailure as failure:
                self._handle_pool_failure(failure, pending, attempts)
                continue
            failed: list[int] = []
            payloads: list[ObsPayload | None] = []
            for i, (status, value, payload) in zip(pending, outcomes):
                payloads.append(payload)
                if status == "ok":
                    results[i] = value
                else:
                    failed.append(i)
                    attempts[i] += 1
                    self._count("task_errors")
            if self.obs_enabled or self.events_enabled:
                self._merge_payloads(payloads)
            pending = failed
            if pending:
                n_retry = sum(
                    1 for i in pending if attempts[i] <= self.policy.max_retries
                )
                if n_retry:
                    self._count("retries", n_retry)
                    self._backoff(retry_round)
                    retry_round += 1
        return results

    def _map_with_deadline(
        self, fn: Callable[[Task], TaskOutcome], batch: list[Task], chunksize: int
    ) -> list[TaskOutcome]:
        """``map_async`` one batch under the policy deadline, polling the
        worker processes while waiting.  Raises :class:`PoolFailure` when
        the batch cannot complete: a worker died (its in-flight chunk is
        lost and the map would wait forever), the deadline expired (a
        wedged worker looks identical from outside), or the pool
        machinery itself failed."""
        assert self._pool is not None
        try:
            async_result = self._pool.map_async(fn, batch, chunksize=chunksize)
        except Exception as exc:
            raise PoolFailure(f"submit failed: {exc!r}") from exc
        deadline = (
            time.monotonic() + self.policy.eval_timeout_s
            if self.policy.eval_timeout_s is not None
            else None
        )
        while True:
            try:
                return async_result.get(timeout=self.policy.poll_interval_s)
            except multiprocessing.TimeoutError:
                dead = [w for w in self._workers if w.exitcode is not None]
                if dead:
                    self._count("worker_deaths", len(dead))
                    raise PoolFailure(f"{len(dead)} worker process(es) died")
                if deadline is not None and time.monotonic() >= deadline:
                    self._count("timeouts")
                    raise PoolFailure(
                        f"batch deadline ({self.policy.eval_timeout_s}s) exceeded"
                    )
            except PoolFailure:
                raise
            except Exception as exc:
                raise PoolFailure(f"pool error: {exc!r}") from exc

    def _handle_pool_failure(
        self, failure: PoolFailure, pending: list[int], attempts: list[int]
    ) -> None:
        """Tear down the wreck, then respawn from the original context
        payload — or degrade to inline evaluation once the pool has died
        ``max_pool_deaths`` times.  Every pending task's attempt count is
        bumped: the batch is re-submitted wholesale (``map_async`` yields
        no partial results), and a task that keeps sinking pools crosses
        its retry budget and gets quarantined like any other failure."""
        self._pool_deaths += 1
        for i in pending:
            attempts[i] += 1
        self._teardown()
        if self._pool_deaths >= self.policy.max_pool_deaths:
            self.degraded = True
            self._count("degraded")
            with _obs_trace.span(
                "engine.fault.degrade", reason=failure.reason, deaths=self._pool_deaths
            ):
                pass
        else:
            with _obs_trace.span("engine.fault.respawn", reason=failure.reason):
                self._spawn()
            self._count("respawns")
            self._count("retries", len(pending))

    def _quarantine(self, inline_fn: Callable[[Any], Any], item: Any, seq: int):
        """A repeatedly failing task is re-run inline in the parent
        through the same pure evaluator — the in-process oracle — so one
        poisonous item cannot starve the batch."""
        self._count("quarantined")
        with _obs_trace.span("engine.fault.quarantine", task=seq):
            return inline_fn(item)

    def _backoff(self, retry_round: int) -> None:
        delay = self.policy.backoff_s * (self.policy.backoff_factor**retry_round)
        if delay > 0:
            time.sleep(delay)

    def _count(self, name: str, amount: int = 1) -> None:
        self.fault_stats[name] += amount
        _obs_metrics.counter(f"engine.fault.{name}").inc(amount)
        if _obs_events._enabled:
            # Parent-side only: fault recovery runs in the parent, so a
            # fault-free run emits no engine.fault events at any worker
            # count and the stream's sums equal the manifest's faults.
            _obs_events.get_bus().publish(
                "engine.fault", {"name": name, "amount": amount}
            )

    def _teardown(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._workers = []

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        self._workers = []

    def terminate(self) -> None:
        self._teardown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On exception the workers may be wedged mid-task; close() would
        # join them forever.  Terminate instead — results are gone anyway.
        if exc_type is not None:
            self.terminate()
        else:
            self.close()
