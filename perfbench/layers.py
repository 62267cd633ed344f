"""Per-layer attribution from outside the program.

:class:`LayerTracer` wraps the public entry points of each ``repro``
layer by patching the module and class attributes that callers bind, so
the program itself is never edited and its own ``repro.obs`` spans play
no part in the split (obs is one of the measured layers).  A function is
patched in every ``repro.*`` module that holds it, under any alias, so a
``from x import f`` binding is covered as well as ``x.f``.  Worker
processes of the evaluation pool import the program afresh and run
unwrapped; their work shows up as parent-side pool wait time.

Every wrapper records calls, inclusive time (``s``) and self time
(``self_s``: its span minus the spans of wrapped calls nested inside it).
Self times therefore partition the wrapped wall time with no overlap.

This module imports nothing from ``repro`` at import time.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import threading
import time
import weakref
from collections import defaultdict
from pathlib import Path

#: The per-layer metrics that are machine-independent work counters: they
#: must repeat exactly at a fixed seed.  The others are times, byte sizes
#: or counts that depend on how fast the machine ran.  ``BENCHMARK.json``
#: lists every per-layer metric with its unit.
EXACT: frozenset[str] = frozenset({
    "mapping.enumerate.calls",
    "mapping.enumerate.out",
    "mapping.validate.calls",
    "mapping.validate.accept_ratio",
    "mapping.lower.calls",
    "schedule.features.calls",
    "schedule.derive.calls",
    "schedule.derive.rows",
    "schedule.derive.rows_per_call",
    "schedule.derive.single_row_share",
    "schedule.lower.calls",
    "model.batch_predict.calls",
    "model.batch_predict.rows",
    "sim.batch_simulate.calls",
    "sim.batch_simulate.rows",
    "sim.simulate_cycles.calls",
    "explore.ga.calls",
    "engine.predict.calls",
    "engine.predict.rows",
    "engine.measure.calls",
    "engine.measure.rows",
    "engine.memo.lookups",
    "engine.memo.hit_ratio",
    "engine.pool.spawns",
    "engine.pool.batches",
    "engine.pool.ipc_bytes",
    "engine.compile_cache.lookups",
    "engine.compile_cache.hit_ratio",
    "engine.compile_cache.stores",
    "obs.recorder.runs",
    "evaluation.layers",
    "evaluation.distinct_compiles",
    "codegen.emit.calls",
})


class _Stat:
    __slots__ = ("calls", "s", "self_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.extra: dict[str, float] = defaultdict(float)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerTracer:
    """Installs the layer wrappers and accumulates their spans.

    Use as a context manager around the traced pass; ``__exit__``
    restores every patched attribute.  Spans are kept only for the
    thread that installed the tracer (the program's pool and live
    telemetry threads run unwrapped).
    """

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self._stack: list[list[float]] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        #: Pools whose workers were (re)started and have run no batch yet.
        self._booting: weakref.WeakSet = weakref.WeakSet()

    # -- wrapping ------------------------------------------------------
    def _wrap(self, name: str, fn, on_call=None):
        """``on_call(stat, args, kwargs, result, elapsed_s)`` records
        layer-specific counts after a successful call."""
        stats = self.stats
        stack = self._stack
        thread = self._thread
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if threading.get_ident() != thread:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat = stats[name]
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - frame[0]
            if on_call is not None:
                on_call(stat, args, kwargs, result, elapsed)
            return result

        return functools.wraps(fn)(wrapper)

    def _patch_function(self, module: str, attr: str, name: str, on_call=None) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapped = self._wrap(name, original, on_call)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)
                    hits += 1
        if not hits:
            raise RuntimeError(f"layer entry point {module}.{attr} is bound nowhere")

    def _patch_method(self, module: str, cls_name: str, attr: str, name: str, on_call=None) -> None:
        cls = getattr(importlib.import_module(module), cls_name)
        if attr not in vars(cls):
            raise RuntimeError(f"layer entry point {module}.{cls_name}.{attr} is missing")
        original = vars(cls)[attr]
        if isinstance(original, staticmethod):
            wrapped = staticmethod(self._wrap(name, original.__func__, on_call))
        else:
            wrapped = self._wrap(name, original, on_call)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    # -- per-layer counters ----------------------------------------------
    @staticmethod
    def _count_out(stat, args, kwargs, result, elapsed) -> None:
        stat.extra["out"] += len(result)

    @staticmethod
    def _count_accepted(stat, args, kwargs, result, elapsed) -> None:
        stat.extra["accepted"] += bool(result)

    @staticmethod
    def _count_batch_rows(stat, args, kwargs, result, elapsed) -> None:
        rows = len(args[1])
        stat.extra["rows"] += rows
        stat.extra["single"] += rows == 1

    @staticmethod
    def _count_engine_rows(stat, args, kwargs, result, elapsed) -> None:
        # args: (engine, items) or (engine, mapping_indices, batch)
        stat.extra["rows"] += len(args[-1])

    @staticmethod
    def _count_memo(stat, args, kwargs, result, elapsed) -> None:
        _, n_items, hits, _misses, _measure = args
        stat.extra["lookups"] += n_items
        stat.extra["hits"] += hits

    def _count_pool_batch(self, stat, args, kwargs, result, elapsed) -> None:
        pool, _fn, batch, _chunksize = args
        stat.extra["ipc_bytes"] += len(pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL))
        if pool in self._booting:
            self._booting.discard(pool)
            stat.extra["first_batch_s"] += elapsed

    def _count_spawn(self, stat, args, kwargs, result, elapsed) -> None:
        self._booting.add(args[0])

    @staticmethod
    def _count_cache_hit(stat, args, kwargs, result, elapsed) -> None:
        stat.extra["hits"] += result is not None

    @staticmethod
    def _count_ingested(stat, args, kwargs, result, elapsed) -> None:
        stat.extra["runs"] += result.new_runs

    @staticmethod
    def _count_written(stat, args, kwargs, result, elapsed) -> None:
        stat.extra["bytes"] += Path(result).stat().st_size

    @staticmethod
    def _count_recorded(stat, args, kwargs, result, elapsed) -> None:
        stat.extra["entered"] += bool(args[0].entered)

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        f, m = self._patch_function, self._patch_method
        f("repro.mapping.generation", "enumerate_mappings", "mapping.enumerate", self._count_out)
        f("repro.mapping.validation", "validate_mapping", "mapping.validate", self._count_accepted)
        f("repro.mapping.physical", "lower_to_physical", "mapping.lower")
        m("repro.schedule.features", "MappingFeatures", "from_physical", "schedule.features")
        f("repro.schedule.features", "derive_batch", "schedule.derive", self._count_batch_rows)
        f("repro.schedule.lowering", "lower_schedule", "schedule.lower")
        f("repro.model.batch_model", "batch_predict", "model.batch_predict", self._count_batch_rows)
        f("repro.sim.batch_timing", "batch_simulate", "sim.batch_simulate", self._count_batch_rows)
        f("repro.sim.timing", "simulate_cycles", "sim.simulate_cycles")
        m("repro.explore.tuner", "Tuner", "candidate_mappings", "explore.enumerate")
        f("repro.explore.genetic", "genetic_search_rows", "explore.ga")
        m("repro.explore.tuner", "Tuner", "tune", "explore.tune")
        for method in ("predict_rows", "predict_many"):
            m("repro.engine.engine", "EvaluationEngine", method, "engine.predict", self._count_engine_rows)
        for method in ("measure_rows", "measure_many"):
            m("repro.engine.engine", "EvaluationEngine", method, "engine.measure", self._count_engine_rows)
        m("repro.engine.engine", "EvaluationEngine", "_record_batch_stats", "engine.memo", self._count_memo)
        m("repro.engine.pool", "WorkerPool", "_spawn", "engine.pool.spawn", self._count_spawn)
        m("repro.engine.pool", "WorkerPool", "_map_with_deadline", "engine.pool.batch", self._count_pool_batch)
        m("repro.engine.cache", "CompileCache", "lookup", "engine.compile_cache.lookup", self._count_cache_hit)
        m("repro.engine.cache", "CompileCache", "store", "engine.compile_cache.store")
        f("repro.compiler", "_kernel_from_cache", "engine.compile_cache.load")
        m("repro.obs.runlog", "FlightRecorder", "__enter__", "obs.recorder.enter", self._count_recorded)
        m("repro.obs.runlog", "FlightRecorder", "__exit__", "obs.recorder.exit")
        f("repro.obs.runlog", "write_run", "obs.write_run", self._count_written)
        m("repro.obs.warehouse", "Warehouse", "ingest", "obs.ingest", self._count_ingested)
        f("repro.codegen.cuda_like", "emit_kernel", "codegen.emit")
        f("repro.compiler", "amos_compile", "compiler")
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- report ----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far, except the
        ones only the workload knows (``obs.manifests_lost``,
        ``evaluation.*``, ``trace.overhead_ratio``)."""
        st = self.stats
        derive = st["schedule.derive"]
        validate = st["mapping.validate"]
        memo = st["engine.memo"]
        pool_batch = st["engine.pool.batch"]
        lookup = st["engine.compile_cache.lookup"]
        out = {
            "mapping.enumerate.calls": st["mapping.enumerate"].calls,
            "mapping.enumerate.s": st["mapping.enumerate"].s,
            "mapping.enumerate.out": st["mapping.enumerate"].extra["out"],
            "mapping.validate.calls": validate.calls,
            "mapping.validate.s": validate.s,
            "mapping.validate.accept_ratio": _ratio(validate.extra["accepted"], validate.calls),
            "mapping.lower.calls": st["mapping.lower"].calls,
            "mapping.lower.s": st["mapping.lower"].s,
            "schedule.features.calls": st["schedule.features"].calls,
            "schedule.features.s": st["schedule.features"].s,
            "schedule.derive.calls": derive.calls,
            "schedule.derive.rows": derive.extra["rows"],
            "schedule.derive.rows_per_call": _ratio(derive.extra["rows"], derive.calls),
            "schedule.derive.single_row_share": _ratio(derive.extra["single"], derive.calls),
            "schedule.derive.s": derive.s,
            "schedule.lower.calls": st["schedule.lower"].calls,
            "schedule.lower.s": st["schedule.lower"].s,
            "model.batch_predict.calls": st["model.batch_predict"].calls,
            "model.batch_predict.rows": st["model.batch_predict"].extra["rows"],
            "model.batch_predict.s": st["model.batch_predict"].s,
            "sim.batch_simulate.calls": st["sim.batch_simulate"].calls,
            "sim.batch_simulate.rows": st["sim.batch_simulate"].extra["rows"],
            "sim.batch_simulate.s": st["sim.batch_simulate"].s,
            "sim.simulate_cycles.calls": st["sim.simulate_cycles"].calls,
            "explore.enumerate.s": st["explore.enumerate"].s,
            "explore.ga.calls": st["explore.ga"].calls,
            "explore.ga.self_s": st["explore.ga"].self_s,
            "explore.tune.self_s": st["explore.tune"].self_s,
            "engine.predict.calls": st["engine.predict"].calls,
            "engine.predict.rows": st["engine.predict"].extra["rows"],
            "engine.measure.calls": st["engine.measure"].calls,
            "engine.measure.rows": st["engine.measure"].extra["rows"],
            "engine.eval.self_s": (
                st["engine.predict"].self_s + st["engine.measure"].self_s + memo.self_s
            ),
            "engine.memo.lookups": memo.extra["lookups"],
            "engine.memo.hit_ratio": _ratio(memo.extra["hits"], memo.extra["lookups"]),
            "engine.pool.spawns": st["engine.pool.spawn"].calls,
            "engine.pool.spawn_s": st["engine.pool.spawn"].s,
            "engine.pool.first_batch_s": pool_batch.extra["first_batch_s"],
            "engine.pool.batches": pool_batch.calls,
            "engine.pool.wait_s": pool_batch.s,
            "engine.pool.ipc_bytes": pool_batch.extra["ipc_bytes"],
            "engine.compile_cache.lookups": lookup.calls,
            "engine.compile_cache.hit_ratio": _ratio(lookup.extra["hits"], lookup.calls),
            "engine.compile_cache.stores": st["engine.compile_cache.store"].calls,
            "engine.compile_cache.store_s": st["engine.compile_cache.store"].s,
            "engine.compile_cache.load_s": st["engine.compile_cache.load"].s,
            "obs.recorder.runs": st["obs.recorder.enter"].extra["entered"],
            "obs.recorder.exit_s": st["obs.recorder.exit"].s,
            "obs.write_run.bytes": st["obs.write_run"].extra["bytes"],
            "obs.ingest.s": st["obs.ingest"].s,
            "obs.ingest.runs": st["obs.ingest"].extra["runs"],
            "codegen.emit.calls": st["codegen.emit"].calls,
            "codegen.emit.s": st["codegen.emit"].s,
            "compiler.self_s": st["compiler"].self_s,
        }
        return {name: float(value) for name, value in out.items()}
