"""Run manifests and the perf/accuracy regression tracker.

A *flight recorder* for the compiler: every ``amos_compile`` / tune run
performed with ``TunerConfig.run_dir`` set leaves behind one structured
:class:`RunRecord` — fingerprints, tuner budget, the Sec 5.3 exploration
funnel, cache/pool behaviour, per-phase wall time, the chosen mapping,
and the Fig 5-style model-quality numbers — as a small JSON manifest in
a run directory.  What used to evaporate with the process (or stay
buried in one-off ``BENCH_*.json`` files) becomes a durable, diffable
record per compilation, the same property Timeloop's per-run stats
artifacts and TVM's tuning logs give those systems.

:func:`load_runs` reads a run directory (or a single manifest) back;
:func:`compare_runs` diffs a baseline against a current run series and
flags latency / candidates-per-second / model-accuracy drift beyond
thresholds — the engine behind ``python -m repro report --compare``,
whose non-zero exit turns "fast as the hardware allows" from an anecdote
into a CI gate.

Recording is observational only: the recorder snapshots the metrics
registry and tracer *around* the run (never resetting either), so it can
run inside a larger profiled session, and nested recorders (a tune
inside a recorded compile) no-op instead of double-writing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.explore_log import ExploreLog, current_log, use_log
from repro.obs.logging import get_logger
from repro.obs.trace import aggregate_spans

_log = get_logger("repro.obs.runlog")

__all__ = [
    "CompareThresholds",
    "FlightRecorder",
    "RunRecord",
    "compare_runs",
    "load_runs",
    "render_comparison",
    "write_run",
]

#: Manifest layout version; bump on incompatible changes.  Loaders skip
#: records with another schema instead of misreading them.
RUN_SCHEMA = 1


@dataclass
class RunRecord:
    """One compilation/tune run, summarised for the flight recorder.

    Field groups map to the paper's signals: ``funnel`` is the Sec 5.3 /
    Table 6 mapping funnel, ``model_quality`` the Fig 5 rank-accuracy
    numbers, ``phases`` the per-stage wall-time split, ``cache`` /
    ``divergence`` the engine behaviour introduced by the perf PRs.
    """

    run_id: str = ""
    created_at: str = ""
    kind: str = "compile"  # "compile" | "tune"
    operator: str = ""
    hardware: str = ""
    fingerprints: dict[str, str] = field(default_factory=dict)
    tuner_config: dict[str, Any] = field(default_factory=dict)
    outcome: dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0
    candidates_per_sec: float = 0.0
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    funnel: dict[str, int] = field(default_factory=dict)
    cache: dict[str, float] = field(default_factory=dict)
    divergence: dict[str, float] = field(default_factory=dict)
    #: ``engine.fault.*`` counter deltas (retries, respawns, quarantined,
    #: ...) for this run; empty when the run saw no faults.  Additive to
    #: the schema: old loaders ignore it, old manifests default to {}.
    faults: dict[str, float] = field(default_factory=dict)
    #: ``obs.health.*`` counter deltas (detector name -> fire count) from
    #: the live health monitor; empty on healthy runs and when the event
    #: bus was off.  Additive like ``faults``.
    health: dict[str, float] = field(default_factory=dict)
    #: Heaviest-child chain through the run's merged span tree (see
    #: :func:`repro.obs.trace.critical_path`): the stages that bound this
    #: run's wall time, worker lanes included.  Additive like ``faults``;
    #: empty when tracing recorded no spans.
    critical_path: list[dict[str, Any]] = field(default_factory=list)
    model_quality: dict[str, float] = field(default_factory=dict)
    schema: int = RUN_SCHEMA

    @property
    def latency_us(self) -> float | None:
        value = self.outcome.get("latency_us")
        return float(value) if isinstance(value, (int, float)) else None

    def series_key(self) -> tuple[str, str, str]:
        """What makes two runs comparable: same operator, same device,
        same exploration budget."""
        return (
            self.operator,
            self.hardware,
            self.fingerprints.get("tuner_config", ""),
        )

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


# ----------------------------------------------------------------------
# Writing and loading manifests
# ----------------------------------------------------------------------
def write_run(record: RunRecord, run_dir: str | os.PathLike) -> Path:
    """Write one manifest as ``run_<created_at>_<run_id>.json``.

    The write is atomic (tmp file + ``os.replace``): a crash mid-write
    leaves at most a ``.run_*.tmp`` file, which the ``run_*.json`` glob
    in :func:`load_runs` never picks up — never a truncated manifest.
    """
    directory = Path(run_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = record.created_at.replace(":", "").replace("+", "Z")
    path = directory / f"run_{stamp}_{record.run_id}.json"
    tmp = directory / f".run_{stamp}_{record.run_id}.tmp"
    tmp.write_text(json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def load_runs(path: str | os.PathLike) -> list[RunRecord]:
    """Load manifests from a run directory or a single manifest file.

    Directory: every ``run_*.json`` inside, sorted by ``created_at``.
    Unreadable or wrong-schema files are skipped, not fatal.
    """
    p = Path(path)
    files: Iterable[Path]
    if p.is_dir():
        files = sorted(p.glob("run_*.json"))
    elif p.is_file():
        files = [p]
    else:
        raise FileNotFoundError(f"no run directory or manifest at {p}")
    records = []
    for file in files:
        # A live `repro watch` polls run dirs while manifests are being
        # written (and other tools may drop junk there): any unreadable,
        # partially-written or wrong-shaped file is skipped with a
        # warning, never fatal.
        try:
            data = json.loads(file.read_text())
            if not isinstance(data, dict) or data.get("schema") != RUN_SCHEMA:
                continue
            record = RunRecord.from_dict(data)
            if not isinstance(record.created_at, str):
                raise TypeError("created_at is not a string")
        except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
            _log.warning(
                "skipping unreadable run manifest",
                file=str(file),
                error=f"{type(exc).__name__}: {exc}",
            )
            continue
        records.append(record)
    # Ties on created_at (second-resolution stamps; concurrent CI shards)
    # break on run_id so the order is a pure function of the manifest
    # *contents* — warehouse ingest and `compare_runs`' latest-per-series
    # rule both depend on this being stable across filesystems.
    records.sort(key=lambda r: (r.created_at, r.run_id))
    return records


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------
_active: ContextVar["FlightRecorder | None"] = ContextVar(
    "repro_obs_flight_recorder", default=None
)

#: Metric names summarised into RunRecord.cache.
_CACHE_COUNTERS = {
    "memo_hits": "engine.cache.hit",
    "memo_misses": "engine.cache.miss",
    "memo_evictions": "engine.cache.evictions",
    "compile_cache_hits": "engine.compile_cache.hit",
    "compile_cache_misses": "engine.compile_cache.miss",
    "pool_spawns": "engine.pool.spawns",
    "pool_tasks": "engine.pool.tasks",
    "pool_batches": "engine.pool.batches",
}


class FlightRecorder:
    """Record one compile/tune run into a :class:`RunRecord` manifest.

    Used as a context manager around the run; the caller injects the
    outcome (:meth:`set_outcome`) before exit.  Re-entrancy: the first
    recorder on a context wins, nested ones become no-ops (``entered``
    False), so a recorded ``amos_compile`` does not also write a second
    manifest for the tune it contains.  Obs is enabled for the duration
    when it was off (and restored after); collection boundaries are
    snapshots, never resets, so recording composes with an ongoing
    ``repro profile`` session.
    """

    def __init__(
        self,
        run_dir: str,
        kind: str,
        operator: str,
        hardware: str,
        config,
        fingerprints: dict[str, str] | None = None,
    ):
        self.run_dir = run_dir
        self.kind = kind
        self.operator = operator
        self.hardware = hardware
        self.config = config
        self.fingerprints = dict(fingerprints or {})
        self.entered = False
        self.record: RunRecord | None = None
        self.path: Path | None = None
        self._outcome: dict[str, Any] = {}
        self._token = None
        self._log_binding: use_log | None = None
        self._was_enabled = False
        self._base_metrics: list[dict[str, Any]] = []
        self._span_mark = 0
        self._t0 = 0.0
        self.run_id = ""
        self.created_at = ""
        self._deltas: list[dict[str, Any]] = []
        self._prior_bus_run_id: str | None = None
        self._health_monitor = None

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "FlightRecorder":
        if _active.get() is not None:
            return self  # nested: outermost recorder owns the manifest
        self.entered = True
        self._token = _active.set(self)
        self._was_enabled = _trace.tracing_enabled()
        if not self._was_enabled:
            _trace.enable_tracing()
        if current_log() is None:
            self._log_binding = use_log(
                ExploreLog(operator=self.operator, hardware=self.hardware)
            )
            self.log = self._log_binding.__enter__()
        else:
            self.log = current_log()
        self._base_metrics = _metrics.get_registry().snapshot()
        self._span_mark = len(_trace.get_tracer())
        # Run identity is minted at entry (not at manifest-build time) so
        # the event stream carries it from the first event on.
        self.created_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
        identity = "|".join(
            (
                self.created_at,
                self.kind,
                self.operator,
                self.hardware,
                *sorted(self.fingerprints.values()),
                str(os.getpid()),
            )
        )
        self.run_id = hashlib.sha256(identity.encode()).hexdigest()[:12]
        if _events.events_enabled():
            bus = _events.get_bus()
            self._prior_bus_run_id = bus.run_id
            bus.run_id = self.run_id
            # Imported lazily: live.py consumes this module's loaders.
            from repro.obs.live import attach_health_monitor

            self._health_monitor = attach_health_monitor(bus)
            bus.publish("run.start", self._run_start_data())
        self._t0 = time.perf_counter()
        return self

    def _run_start_data(self) -> dict[str, Any]:
        """run.start payload: identity plus the *budget* knobs only, so
        the event is worker-count invariant by construction."""
        budget = {}
        for knob in (
            "population",
            "generations",
            "measure_top",
            "prefilter_mappings",
            "refine_rounds",
            "seed",
        ):
            value = getattr(self.config, knob, None)
            if value is not None:
                budget[knob] = value
        return {
            "kind": self.kind,
            "operator": self.operator,
            "hardware": self.hardware,
            "budget": budget,
        }

    def set_outcome(self, **outcome: Any) -> None:
        self._outcome.update(outcome)

    def __exit__(self, exc_type, *exc_info: object) -> None:
        if not self.entered:
            return
        wall_s = time.perf_counter() - self._t0
        try:
            if exc_type is None:
                self.record = self._build(wall_s)
                if _events.events_enabled():
                    bus = _events.get_bus()
                    bus.publish("metric.delta", {"deltas": self._deltas})
                    bus.publish(
                        "run.end",
                        {
                            "status": "ok",
                            "wall_s": wall_s,
                            "outcome": self.record.outcome,
                            "funnel": self.record.funnel,
                            "cache": self.record.cache,
                            "faults": self.record.faults,
                            "health": self.record.health,
                        },
                    )
                self.path = write_run(self.record, self.run_dir)
            elif _events.events_enabled():
                _events.get_bus().publish(
                    "run.end",
                    {
                        "status": "error",
                        "wall_s": wall_s,
                        "error": exc_type.__name__,
                    },
                )
        finally:
            if self._health_monitor is not None:
                self._health_monitor.close()
                self._health_monitor = None
            if self._prior_bus_run_id is not None:
                _events.get_bus().run_id = self._prior_bus_run_id
                self._prior_bus_run_id = None
            if self._log_binding is not None:
                self._log_binding.__exit__()
            if not self._was_enabled:
                _trace.disable_tracing()
            if self._token is not None:
                _active.reset(self._token)

    # -- assembly ------------------------------------------------------
    def _build(self, wall_s: float) -> RunRecord:
        deltas = _metrics.get_registry().diff(self._base_metrics)
        self._deltas = deltas
        counters = {
            d["name"]: d["value"] for d in deltas if d["kind"] == "counter"
        }
        spans = _trace.get_tracer().spans()[self._span_mark :]
        phases = {
            st.name: {
                "count": float(st.count),
                "total_us": st.total_us,
                "self_us": st.self_us,
            }
            for st in aggregate_spans(spans)
        }
        critical = _trace.critical_path(spans)
        cache = {
            label: counters.get(metric, 0.0)
            for label, metric in _CACHE_COUNTERS.items()
        }
        submitted = cache["memo_hits"] + cache["memo_misses"]
        divergence = {
            "checked": counters.get("engine.divergence.checked", 0.0),
            "mismatched": counters.get("engine.divergence.mismatched", 0.0),
        }
        faults = {
            name[len("engine.fault."):]: value
            for name, value in counters.items()
            if name.startswith("engine.fault.") and value
        }
        health = {
            name[len("obs.health."):]: value
            for name, value in counters.items()
            if name.startswith("obs.health.") and value
        }
        quality = {
            k: v
            for k, v in self.log.model_quality().items()
            if isinstance(v, float) and math.isfinite(v)
        }
        return RunRecord(
            run_id=self.run_id,
            created_at=self.created_at,
            kind=self.kind,
            operator=self.operator,
            hardware=self.hardware,
            fingerprints=self.fingerprints,
            tuner_config=dataclasses.asdict(self.config) if self.config else {},
            outcome=dict(self._outcome),
            wall_s=wall_s,
            candidates_per_sec=submitted / wall_s if wall_s > 0 else 0.0,
            phases=phases,
            funnel=self.log.funnel.to_dict(),
            cache=cache,
            divergence=divergence,
            faults=faults,
            health=health,
            critical_path=critical,
            model_quality=quality,
        )


def active_recorder() -> "FlightRecorder | None":
    """The context's live recorder, if a run is being recorded."""
    return _active.get()


# ----------------------------------------------------------------------
# Regression tracking
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompareThresholds:
    """Drift beyond any of these flags a regression.

    ``max_latency_increase`` and ``max_throughput_drop`` are fractions of
    the baseline; ``max_accuracy_drop`` is an absolute drop in pairwise
    rank accuracy (a 0-1 quantity).  A metric named in ``ignore`` is
    skipped — CI ignores ``throughput`` because wall-clock rates are
    machine-dependent while simulated latency is not.
    """

    max_latency_increase: float = 0.20
    max_throughput_drop: float = 0.50
    max_accuracy_drop: float = 0.05
    ignore: tuple[str, ...] = ()


def _latest_by_key(runs: Sequence[RunRecord]) -> dict[tuple, RunRecord]:
    latest: dict[tuple, RunRecord] = {}
    for run in runs:  # load_runs sorts by created_at; later wins
        latest[run.series_key()] = run
    return latest


def compare_runs(
    baseline: Sequence[RunRecord],
    current: Sequence[RunRecord],
    thresholds: CompareThresholds | None = None,
) -> dict[str, Any]:
    """Diff two run sets; returns ``{regressions, comparisons, unmatched}``.

    Runs pair up by :meth:`RunRecord.series_key` (operator, hardware,
    budget fingerprint); the latest run of each series on either side is
    compared.  Current runs with no baseline are listed in ``unmatched``
    (new coverage is not a regression).
    """
    thresholds = thresholds or CompareThresholds()
    base_by_key = _latest_by_key(baseline)
    cur_by_key = _latest_by_key(current)
    regressions: list[dict[str, Any]] = []
    comparisons: list[dict[str, Any]] = []
    unmatched = [
        f"{run.operator} on {run.hardware}"
        for key, run in sorted(cur_by_key.items())
        if key not in base_by_key
    ]

    def check(name, label, base_value, cur_value, drift, limit, comparison):
        comparison[name] = {
            "baseline": base_value,
            "current": cur_value,
            "drift": drift,
            "limit": limit,
        }
        if name not in thresholds.ignore and drift > limit:
            regressions.append({"metric": name, "where": label, **comparison[name]})

    for key, cur in sorted(cur_by_key.items()):
        base = base_by_key.get(key)
        if base is None:
            continue
        label = f"{cur.operator} on {cur.hardware}"
        comparison: dict[str, Any] = {"where": label}
        if base.latency_us and cur.latency_us is not None:
            check(
                "latency",
                label,
                base.latency_us,
                cur.latency_us,
                (cur.latency_us - base.latency_us) / base.latency_us,
                thresholds.max_latency_increase,
                comparison,
            )
        if base.candidates_per_sec > 0 and cur.candidates_per_sec >= 0:
            check(
                "throughput",
                label,
                base.candidates_per_sec,
                cur.candidates_per_sec,
                (base.candidates_per_sec - cur.candidates_per_sec)
                / base.candidates_per_sec,
                thresholds.max_throughput_drop,
                comparison,
            )
        base_acc = base.model_quality.get("pairwise_accuracy")
        cur_acc = cur.model_quality.get("pairwise_accuracy")
        if base_acc is not None and cur_acc is not None:
            check(
                "accuracy",
                label,
                base_acc,
                cur_acc,
                base_acc - cur_acc,
                thresholds.max_accuracy_drop,
                comparison,
            )
        if cur.divergence.get("mismatched"):
            regressions.append(
                {
                    "metric": "divergence",
                    "where": label,
                    "baseline": 0.0,
                    "current": cur.divergence["mismatched"],
                    "drift": cur.divergence["mismatched"],
                    "limit": 0.0,
                }
            )
        comparisons.append(comparison)
    return {
        "regressions": regressions,
        "comparisons": comparisons,
        "unmatched": unmatched,
    }


def render_comparison(report: dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`compare_runs` report."""
    lines = ["== AMOS run comparison =="]
    for comparison in report["comparisons"]:
        lines.append(f"  {comparison['where']}")
        for name in ("latency", "throughput", "accuracy"):
            entry = comparison.get(name)
            if entry is None:
                continue
            lines.append(
                f"    {name:10} baseline={entry['baseline']:>12.4g} "
                f"current={entry['current']:>12.4g} "
                f"drift={entry['drift']:+.2%} (limit {entry['limit']:.0%})"
            )
    for where in report["unmatched"]:
        lines.append(f"  {where}: no baseline (new coverage)")
    trends = report.get("trends")
    if trends:
        lines.append("")
        lines.append(f"-- history trends (window {report.get('history', '?')}) --")
        for trend in trends:
            lines.append(
                f"  {trend['metric']:14} at {trend['where']}: "
                f"{trend['direction']:10} over {trend['window']} run(s) "
                f"(drift {trend['rel_drift']:+.2%}, limit {trend['limit']:.0%})"
            )
    if report["regressions"]:
        lines.append("")
        lines.append(f"-- {len(report['regressions'])} regression(s) --")
        for reg in report["regressions"]:
            lines.append(
                f"  REGRESSION {reg['metric']} at {reg['where']}: "
                f"{reg['baseline']:.4g} -> {reg['current']:.4g} "
                f"(drift {reg['drift']:+.2%} > limit {reg['limit']:.0%})"
            )
    else:
        lines.append("")
        lines.append("-- no regressions --")
    return "\n".join(lines)
