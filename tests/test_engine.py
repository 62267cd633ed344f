"""The evaluation engine: fingerprints, memo, pool, persistent cache.

The engine's contract is "same answer, faster": everything here checks
that worker count, batch shape, memo temperature and on-disk cache state
can never change what the tuner or compiler returns — and that invalid
cache state is ignored rather than served.
"""

import dataclasses
import json

import pytest

from repro.compiler import amos_compile
from repro.engine import (
    CACHE_VERSION,
    CompileCache,
    EvaluationEngine,
    MemoCache,
    computation_fingerprint,
    hardware_fingerprint,
    mapping_fingerprint,
    reset_compile_caches,
    reset_global_memo,
    resolve_workers,
    tuner_config_fingerprint,
)
from repro.explore.genetic import GeneticConfig, genetic_search
from repro.explore.tuner import Tuner, TunerConfig
from repro.frontends.operators import make_operator
from repro.mapping.generation import enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.model import get_hardware
from repro.obs.explore_log import ExploreLog, use_log
from repro.schedule.schedule import Schedule
from repro.schedule.space import ScheduleSpace, default_schedule
import repro.obs as obs


FAST = TunerConfig(
    population=8, generations=2, measure_top=8, refine_rounds=1, refine_neighbors=4
)


def small_physical(comp=None):
    comp = comp or make_operator("GMM", m=64, n=64, k=64)
    tuner = Tuner(get_hardware("v100"), FAST)
    return comp, tuner.candidate_mappings(comp)


def tune_fingerprint(result) -> list[tuple]:
    """Everything order-sensitive about a tune run, comparably rendered."""
    return [
        (t.mapping_index, t.predicted_us, t.measured_us, t.scheduled.schedule.describe())
        for t in result.trials
    ]


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_global_memo()
    reset_compile_caches()
    yield
    reset_global_memo()
    reset_compile_caches()


class TestFingerprints:
    def test_computation_fingerprint_separates_shapes(self):
        a = computation_fingerprint(make_operator("GMM", m=64, n=64, k=64))
        b = computation_fingerprint(make_operator("GMM", m=64, n=64, k=128))
        assert a != b
        assert a == computation_fingerprint(make_operator("GMM", m=64, n=64, k=64))

    def test_hardware_fingerprint_covers_all_fields(self):
        hw = get_hardware("v100")
        variant = hw.with_overrides(global_bandwidth_gbs=hw.global_bandwidth_gbs * 2)
        # Ablation variants keep the device name; the fingerprint must
        # still tell them apart.
        assert hardware_fingerprint(hw) != hardware_fingerprint(variant)

    def test_mapping_fingerprints_distinct_per_mapping(self):
        _, physical = small_physical()
        fps = {mapping_fingerprint(pm) for pm in physical}
        assert len(fps) == len(physical)

    def test_config_fingerprint_ignores_execution_knobs(self):
        base = TunerConfig(seed=3)
        same = TunerConfig(seed=3, n_workers=7, cache_dir="/x", min_pool_batch=1)
        other = TunerConfig(seed=4)
        assert tuner_config_fingerprint(base) == tuner_config_fingerprint(same)
        assert tuner_config_fingerprint(base) != tuner_config_fingerprint(other)


class TestMemoCache:
    def test_roundtrip_and_separation(self):
        memo = MemoCache()
        memo.put_prediction("k", 1.0)
        assert memo.get_prediction("k") == 1.0
        assert memo.get_measurement("k") is None

    def test_bounded(self):
        memo = MemoCache(max_entries=10)
        for i in range(25):
            memo.put_prediction(f"k{i}", float(i))
        assert len(memo.predictions) <= 10
        assert memo.get_prediction("k24") == 24.0


class TestCompileCache:
    def test_roundtrip_and_reload(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        cache.store("key", {"comp_fp": "a", "latency_us": 1.5})
        reloaded = CompileCache(str(tmp_path))
        assert reloaded.lookup("key")["latency_us"] == 1.5
        assert reloaded.lookup("key")["version"] == CACHE_VERSION

    def test_corrupt_and_wrong_version_lines_skipped(self, tmp_path):
        path = tmp_path / CompileCache.FILENAME
        path.write_text(
            "not json at all\n"
            + json.dumps({"key": "old", "version": CACHE_VERSION - 1}) + "\n"
            + json.dumps({"key": "good", "version": CACHE_VERSION, "x": 1}) + "\n"
        )
        cache = CompileCache(str(tmp_path))
        assert cache.lookup("old") is None
        assert cache.lookup("good")["x"] == 1

    def test_later_entries_win(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        cache.store("key", {"x": 1})
        cache.store("key", {"x": 2})
        assert CompileCache(str(tmp_path)).lookup("key")["x"] == 2


class TestResolveWorkers:
    def test_default_is_in_process(self):
        assert TunerConfig().n_workers == 1

    def test_explicit_and_invalid(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        for bad in (0, -1, -8, None, 2.0):
            with pytest.raises(ValueError, match="n_workers must be an int >= 1"):
                resolve_workers(bad)


class TestDefaultNeverPools:
    """In-process evaluation is the default: only an explicit
    ``n_workers >= 2`` may pay for a process pool."""

    @pytest.fixture(autouse=True)
    def forbid_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a default-config run constructed a WorkerPool")

        monkeypatch.setattr("repro.engine.engine.WorkerPool", refuse)

    def test_default_tuner_config_tune(self):
        comp = make_operator("GMM", m=64, n=64, k=64)
        result = Tuner(get_hardware("v100"), TunerConfig()).tune(comp)
        assert result.best_us > 0

    def test_default_engine_large_batch(self):
        import random

        comp, physical = small_physical()
        rng = random.Random(0)
        items = [
            (i, ScheduleSpace(pm).sample(rng))
            for i, pm in enumerate(physical)
            for _ in range(8)
        ]
        engine = EvaluationEngine(comp, physical, get_hardware("v100"), memo=MemoCache())
        assert engine.n_workers == 1
        assert len(items) >= engine.min_pool_batch  # big enough to have pooled
        assert len(engine.measure_many(items)) == len(items)


class TestEvaluationEngine:
    def test_memo_and_in_batch_duplicates(self):
        comp, physical = small_physical()
        engine = EvaluationEngine(
            comp, physical, get_hardware("v100"), n_workers=1, memo=MemoCache()
        )
        sched = default_schedule(physical[0])
        batch = [(0, sched), (0, sched), (1, default_schedule(physical[1]))]
        first = engine.predict_many(batch)
        assert first[0] == first[1]
        assert engine.predict_many(batch) == first  # served from memo
        assert engine.memo.get_prediction(engine.key_of(0, sched)) == first[0]

    def test_measurements_cached_separately(self):
        comp, physical = small_physical()
        engine = EvaluationEngine(
            comp, physical, get_hardware("v100"), n_workers=1, memo=MemoCache()
        )
        sched = default_schedule(physical[0])
        engine.predict_many([(0, sched)])
        key = engine.key_of(0, sched)
        assert engine.memo.get_measurement(key) is None
        [(predicted, measured)] = engine.measure_many([(0, sched)])
        assert engine.memo.get_measurement(key) == measured
        assert measured > 0 and predicted > 0

    def test_pool_matches_inline(self):
        """The spawn pool returns exactly what in-process evaluation does."""
        comp, physical = small_physical()
        hw = get_hardware("v100")
        rng_scheds = []
        import random

        rng = random.Random(0)
        for i, pm in enumerate(physical):
            space = ScheduleSpace(pm)
            rng_scheds.extend((i, space.sample(rng)) for _ in range(3))

        inline = EvaluationEngine(comp, physical, hw, n_workers=1, memo=MemoCache())
        expected = inline.measure_many(rng_scheds)
        with EvaluationEngine(
            comp, physical, hw, n_workers=2, memo=MemoCache(), min_pool_batch=1
        ) as pooled:
            assert pooled.measure_many(rng_scheds) == expected


class TestScheduleDict:
    def test_roundtrip(self):
        _, physical = small_physical()
        sched = default_schedule(physical[0])
        clone = Schedule.from_dict(sched.to_dict())
        assert clone.describe() == sched.describe()
        assert json.loads(json.dumps(sched.to_dict())) == sched.to_dict()


class TestGeneticBatchEquivalence:
    def test_fitness_many_matches_fitness(self):
        comp, physical = small_physical()
        hw = get_hardware("v100")
        engine = EvaluationEngine(comp, physical, hw, n_workers=1, memo=MemoCache())

        def fitness(c):
            return engine.predict_many([(c.mapping_index, c.schedule)])[0]

        calls = []

        def fitness_many(cs):
            calls.append(len(cs))
            return engine.predict_many([(c.mapping_index, c.schedule) for c in cs])

        ga = GeneticConfig(population=12, generations=4, seed=7)
        serial = genetic_search(physical, fitness=fitness, config=ga)
        batch = genetic_search(physical, config=ga, fitness_many=fitness_many)
        assert [(c.mapping_index, c.schedule.describe(), cost) for c, cost in serial] \
            == [(c.mapping_index, c.schedule.describe(), cost) for c, cost in batch]
        # whole generations scored in one call, not one call per candidate
        assert max(calls) > 1

    def test_requires_an_evaluator(self):
        _, physical = small_physical()
        with pytest.raises(ValueError):
            genetic_search(physical)


class TestTunerDeterminism:
    def _tune(self, n_workers, min_pool_batch=16):
        reset_global_memo()
        comp = make_operator("GMM", m=64, n=64, k=64)
        config = dataclasses.replace(
            FAST, n_workers=n_workers, min_pool_batch=min_pool_batch
        )
        obs.reset()
        obs.enable()
        log = ExploreLog(operator=comp.name, hardware="v100")
        try:
            with use_log(log):
                result = Tuner(get_hardware("v100"), config).tune(comp)
        finally:
            obs.disable()
            obs.reset()
        return result, log

    def test_worker_count_is_not_a_search_knob(self):
        """n_workers=1 vs n_workers=4 (pool forced via min_pool_batch=1):
        identical best, trial ordering and telemetry funnel."""
        serial, serial_log = self._tune(n_workers=1)
        pooled, pooled_log = self._tune(n_workers=4, min_pool_batch=1)
        assert serial.best_us == pooled.best_us
        assert tune_fingerprint(serial) == tune_fingerprint(pooled)
        assert serial_log.funnel.to_dict() == pooled_log.funnel.to_dict()
        assert serial_log.samples == pooled_log.samples

    def test_warm_memo_is_not_a_search_knob(self):
        """Cold vs warm in-memory memo: identical everything."""
        cold, cold_log = self._tune(n_workers=1)
        # _tune resets the memo first; run twice without the reset.
        comp = make_operator("GMM", m=64, n=64, k=64)
        config = dataclasses.replace(FAST, n_workers=1)
        tuner = Tuner(get_hardware("v100"), config)
        obs.reset()
        obs.enable()
        warm_log = ExploreLog(operator=comp.name, hardware="v100")
        try:
            tuner.tune(comp)  # populate the memo
            with use_log(warm_log):
                warm = tuner.tune(comp)
        finally:
            obs.disable()
            obs.reset()
        assert warm.best_us == cold.best_us
        assert tune_fingerprint(warm) == tune_fingerprint(cold)
        assert warm_log.funnel.to_dict() == cold_log.funnel.to_dict()


class TestPersistentCompileCache:
    def test_second_compile_is_served_from_disk(self, tmp_path):
        config = dataclasses.replace(FAST, cache_dir=str(tmp_path), n_workers=1)
        comp = make_operator("GMM", m=64, n=64, k=64)
        cold = amos_compile(comp, "v100", config)
        reset_compile_caches()  # force a re-read from disk
        reset_global_memo()
        warm = amos_compile(make_operator("GMM", m=64, n=64, k=64), "v100", config)
        assert warm.latency_us == cold.latency_us
        assert warm.used_intrinsics
        assert warm.scheduled.schedule.describe() == cold.scheduled.schedule.describe()
        assert mapping_fingerprint(warm.scheduled.physical) == mapping_fingerprint(
            cold.scheduled.physical
        )

    def test_budget_change_misses(self, tmp_path):
        config = dataclasses.replace(FAST, cache_dir=str(tmp_path), n_workers=1)
        amos_compile(make_operator("GMM", m=64, n=64, k=64), "v100", config)
        other = dataclasses.replace(config, seed=99)
        path = tmp_path / CompileCache.FILENAME
        before = len(path.read_text().splitlines())
        amos_compile(make_operator("GMM", m=64, n=64, k=64), "v100", other)
        assert len(path.read_text().splitlines()) == before + 1

    def _poison(self, tmp_path, field, value):
        path = tmp_path / CompileCache.FILENAME
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        for entry in entries:
            entry[field] = value
        path.write_text("".join(json.dumps(e) + "\n" for e in entries))
        reset_compile_caches()
        reset_global_memo()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("comp_fp", "0" * 16),
            ("mapping_fp", "0" * 16),
            ("schedule", {"bogus": True}),
            ("latency_us", "not-a-number"),
        ],
    )
    def test_poisoned_entry_is_ignored_not_served(self, tmp_path, field, value):
        config = dataclasses.replace(FAST, cache_dir=str(tmp_path), n_workers=1)
        comp = make_operator("GMM", m=64, n=64, k=64)
        cold = amos_compile(comp, "v100", config)
        self._poison(tmp_path, field, value)
        redo = amos_compile(make_operator("GMM", m=64, n=64, k=64), "v100", config)
        # the poisoned entry forced a (deterministic) re-tune
        assert redo.latency_us == cold.latency_us
        assert redo.scheduled.schedule.describe() == cold.scheduled.schedule.describe()

    def test_scalar_fallback_cached(self, tmp_path):
        from repro.ir import Tensor, compute, spatial_axis

        def make_copy():
            i = spatial_axis(64, "i")
            a, out = Tensor("A", (64,)), Tensor("out", (64,))
            return compute("copy", [i], out[i], [a[i]], combine="identity", reduce=None)

        config = dataclasses.replace(FAST, cache_dir=str(tmp_path), n_workers=1)
        cold = amos_compile(make_copy(), "v100", config)
        reset_compile_caches()
        warm = amos_compile(make_copy(), "v100", config)
        assert not warm.used_intrinsics
        assert warm.latency_us == cold.latency_us


class TestCliFlags:
    def test_compile_cache_dir_flag(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "compile", "GMM", "--hardware", "v100",
            "--params", "m=64", "n=64", "k=64",
            "--workers", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert (tmp_path / CompileCache.FILENAME).exists()
        reset_compile_caches()
        reset_global_memo()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
