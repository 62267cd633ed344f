"""Array-native exploration: the one row path, pinned and checked.

The GA's native currency is a :class:`ScheduleBatch` plus a mapping-index
vector.  These tests enforce the contract end to end:

* ``genetic_search_rows`` returns a pinned ranking (mapping index, row
  key, cost — and tie-break order) and pinned per-generation telemetry
  at fixed seeds, so a change to the GA's RNG stream fails here;
* the engine's ``predict_rows`` / ``measure_rows`` and ``predict_many``
  / ``measure_many`` equal the scalar ``predict_latency`` /
  ``simulate_cycles`` oracle bit for bit, share one memo, and the
  row-key scheme is invariant to joint-width padding;
* a full ``Tuner.tune`` selects a pinned best mapping/schedule with a
  pinned manifest (trials, cache counters) on three devices and for
  n_workers in {1, 4};
* the divergence watchdog finds zero batch-vs-scalar mismatches and
  checks a pinned number of candidates at rate 1.0;
* property-based: every row produced by the vectorized ``sample_columns``
  / ``mutate_columns`` decodes to a schedule the space ``accepts``, on
  every registered device's intrinsics, and equals the scalar reference
  decoders row by row.

The pinned values were recorded while the removed object-path GA and
scalar engine mode still ran alongside the row path and agreed with it
bit for bit.
"""

import dataclasses
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.engine import (
    EvaluationEngine,
    MemoCache,
    reset_compile_caches,
    reset_global_memo,
)
from repro.explore.genetic import (
    Candidate,
    GAResult,
    GeneticConfig,
    genetic_search_rows,
)
from repro.explore.tuner import Tuner, TunerConfig
from repro.frontends.operators import make_operator
from repro.isa.registry import intrinsics_for_target
from repro.mapping.generation import GenerationOptions, enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.model.hardware_params import get_hardware
from repro.model.perf_model import predict_latency
from repro.schedule.features import ScheduleBatch, schedules_from_rows
from repro.schedule.lowering import lower_schedule
from repro.schedule.space import MUTATE_UNIFORMS, ScheduleSpace, default_schedule
from repro.sim.timing import simulate_cycles


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    obs.reset()
    reset_global_memo()
    reset_compile_caches()
    yield
    obs.disable()
    obs.reset()
    reset_global_memo()
    reset_compile_caches()


def _mappings_for(hw, comp, limit=3):
    physical = [
        lower_to_physical(m)
        for intr in intrinsics_for_target(hw.target)
        for m in enumerate_mappings(comp, intr, GenerationOptions())
    ]
    assert physical, f"no mappings of {comp.name} on {hw.target}"
    return physical[:limit]


def _ga_context(hw_name="v100", op="GMM", **params):
    hw = get_hardware(hw_name)
    comp = make_operator(op, **(params or dict(m=64, n=64, k=64)))
    physical = _mappings_for(hw, comp)
    max_warps = hw.max_warps_per_subcore * hw.subcores_per_core
    spaces = [ScheduleSpace(pm, max_warps_per_block=max_warps) for pm in physical]
    seeds = [
        Candidate(i, default_schedule(pm, max_warps_per_block=max_warps))
        for i, pm in enumerate(physical)
    ]
    return hw, comp, physical, spaces, seeds


def _ranking_digest(result, spaces):
    """sha256 over every ranked entry: mapping index, row key (the row's
    width-trimmed int64 columns) and cost, in rank order."""
    h = hashlib.sha256()
    b = result.batch
    for i in range(len(result)):
        mi = int(result.mapping_index[i])
        d = len(spaces[mi].spatial_names)
        row = np.concatenate(
            [
                b.warp[i, :d],
                b.seq[i, :d],
                [b.reduce_stage[i], int(b.double_buffer[i]), b.unroll[i], b.vectorize[i]],
            ]
        ).astype(np.int64)
        h.update(f"{mi}|{row.tobytes().hex()}|{float(result.costs[i])!r}\n".encode())
    return h.hexdigest()


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


# ----------------------------------------------------------------------
# GA: the row ranking, pinned
# ----------------------------------------------------------------------
#: ``genetic_search_rows`` on ``_ga_context()`` (population 8, 3
#: generations), keyed by (seed, default seeds injected?): evaluated
#: candidates, best cost, ranking digest, per-generation telemetry digest.
GA_GOLDEN = {
    (0, True): (19, 0.5461333333333334,
                "5bdb3cf301219f9529a55e2adce009d358190e5dbd056538074d24b07e595f1e",
                "eb5653adb58ff0300f8289b42370e4129877c68f19278de44c382c55a25b0f1d"),
    (1, True): (24, 0.5461333333333334,
                "0571a2fc538c7341e387fddc3d0a7612bd97a0c958cb8c94ac1cd76ed686f4d4",
                "bec5105033d3455a40da928b6f31c9c0cfa38df5f0d14bb9e6b3c768dc99dcf2"),
    (2, True): (17, 0.5461333333333334,
                "7ca92b29645611f801617ea54ac1dbc671d0f689dec01c3685270a452d46713d",
                "6d1cdfc07651cf2b831e9f9299a9f726885b498b6d424aa642bd1f523e92f045"),
    (3, True): (19, 0.7281777777777778,
                "ece2534a963db46d4281cfac1e8e4fd1d5cead21568f54238cea4c651b7ce527",
                "485dae32040b6c46fb1cebe03f844f148202585f1f0410db95fe2d899d4d0b54"),
    (11, True): (21, 0.5461333333333334,
                 "4727c95af8ae739a7190ccd4e45e5efe94091e34e1aa49f96acc2d1e69a75352",
                 "1de2eb60c2fcd6ad706377bf72778846cc9c274480b69f7892fedfc46a3dc7f7"),
    (2, False): (21, 0.7281777777777778,
                 "d9792824a5ddc8bec72725457d2ab7b5bd7e36e0d710942403ece875e82ad05e",
                 "88eabbd0d4349e11a578dea862dcec5792f12dc099d2bbf6858c8e9e65cb1ed9"),
}


class TestGeneticRowsOracle:
    def _run(self, seed, generations=3, population=8, with_seeds=True):
        hw, comp, physical, spaces, default_seeds = _ga_context()
        cfg = GeneticConfig(population=population, generations=generations, seed=seed)
        gens = []
        with EvaluationEngine(
            comp, physical, hw, n_workers=1, memo=MemoCache()
        ) as engine:
            result = genetic_search_rows(
                physical,
                engine.predict_rows,
                cfg,
                seeds=default_seeds if with_seeds else (),
                spaces=spaces,
                on_generation=lambda g, f, u: gens.append((g, f, u)),
            )
        return result, spaces, gens

    def _assert_golden(self, seed, with_seeds):
        result, spaces, gens = self._run(seed, with_seeds=with_seeds)
        n, best, ranking, telemetry = GA_GOLDEN[(seed, with_seeds)]
        assert len(result) == n
        assert float(result.costs[0]) == best
        assert _ranking_digest(result, spaces) == ranking
        # Per-generation telemetry (fitnesses + diversity) is pinned too:
        # the GA walked the same populations in the same order.
        assert _sha(gens) == telemetry

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 11])
    def test_identical_ranking_across_seeds(self, seed):
        """Same evaluated set, same costs, same stable tie-break order as
        the pinned run — not approximately, identically."""
        self._assert_golden(seed, with_seeds=True)

    def test_result_sorted_and_sized(self):
        result, spaces, _ = self._run(seed=5)
        assert isinstance(result, GAResult)
        assert len(result) == len(result.candidates(spaces))
        costs = result.costs.tolist()
        assert costs == sorted(costs)
        assert result.mapping_index.shape[0] == len(result.batch)

    def test_without_seed_candidates(self):
        """Fully random initial populations (no injected seeds) follow the
        same uniform-matrix protocol."""
        self._assert_golden(2, with_seeds=False)

    def test_empty_mappings_rejected(self):
        with pytest.raises(ValueError, match="no mappings"):
            genetic_search_rows([], lambda mi, b: np.zeros(0))

    def test_space_count_mismatch_rejected(self):
        _, _, physical, spaces, _ = _ga_context()
        with pytest.raises(ValueError, match="one schedule space per mapping"):
            genetic_search_rows(
                physical, lambda mi, b: np.zeros(len(b)), spaces=spaces[:1]
            )

    def test_bad_fitness_rows_length_rejected(self):
        _, _, physical, spaces, seeds = _ga_context()
        with pytest.raises(ValueError, match="fitness_rows returned"):
            genetic_search_rows(
                physical,
                lambda mi, b: np.zeros(len(b) + 1),
                GeneticConfig(population=4, generations=1),
                seeds=seeds,
                spaces=spaces,
            )


# ----------------------------------------------------------------------
# Engine row entry points
# ----------------------------------------------------------------------
class TestEngineRowPath:
    def _items(self, hw, comp, physical, count=12):
        rng = random.Random(17)
        max_warps = hw.max_warps_per_subcore * hw.subcores_per_core
        items = []
        for mi, pm in enumerate(physical):
            space = ScheduleSpace(pm, max_warps_per_block=max_warps)
            items += [(mi, space.sample(rng)) for _ in range(count)]
        rng.shuffle(items)
        return items

    def test_rows_equal_objects_bitwise(self):
        """Both entry points equal the scalar model on the lowered
        schedule, with ``==``."""
        hw, comp, physical, _, _ = _ga_context()
        items = self._items(hw, comp, physical)
        oracle = []
        for mi, schedule in items:
            sched = lower_schedule(physical[mi], schedule)
            oracle.append(
                (predict_latency(sched, hw).total_us, simulate_cycles(sched, hw).total_us)
            )
        with EvaluationEngine(
            comp, physical, hw, n_workers=1, memo=MemoCache()
        ) as engine:
            mi_arr, batch = engine.encode_rows(items)
            row_pred = engine.predict_rows(mi_arr, batch)
            row_p, row_m = engine.measure_rows(mi_arr, batch)
        with EvaluationEngine(
            comp, physical, hw, n_workers=1, memo=MemoCache()
        ) as engine:
            obj_pred = engine.predict_many(items)
            obj_pairs = engine.measure_many(items)
        assert row_pred.tolist() == [p for p, _ in oracle]
        assert list(zip(row_p.tolist(), row_m.tolist())) == oracle
        assert obj_pred == [p for p, _ in oracle]
        assert obj_pairs == oracle

    def test_row_keys_invariant_to_joint_padding(self):
        """A schedule's memo key must not depend on which batch it rides
        in: padding the batch with extra identity-split columns (as a
        joint population does for narrower mappings) keeps keys equal."""
        hw, comp, physical, _, _ = _ga_context()
        items = self._items(hw, comp, physical, count=4)
        with EvaluationEngine(
            comp, physical, hw, n_workers=1, memo=MemoCache()
        ) as engine:
            mi_arr, batch = engine.encode_rows(items)
            pad = np.ones((len(batch), 2), dtype=np.int64)
            padded = ScheduleBatch(
                warp=np.hstack([batch.warp, pad]),
                seq=np.hstack([batch.seq, pad]),
                reduce_stage=batch.reduce_stage,
                double_buffer=batch.double_buffer,
                unroll=batch.unroll,
                vectorize=batch.vectorize,
            )
            assert engine.row_keys(mi_arr, batch) == engine.row_keys(mi_arr, padded)

    def test_rows_and_objects_share_the_memo(self):
        """Objects are encoded to rows, so both entry points address the
        same memo entries: a predict_rows pass after predict_many on the
        same candidates computes nothing new and returns the same bits."""
        hw, comp, physical, _, _ = _ga_context()
        items = self._items(hw, comp, physical, count=6)
        obs.enable()
        with EvaluationEngine(
            comp, physical, hw, n_workers=1, memo=MemoCache()
        ) as engine:
            first = engine.predict_many(items)
            before = obs.get_registry().counter("engine.cache.miss").value
            second = engine.predict_rows(*engine.encode_rows(items))
            after = obs.get_registry().counter("engine.cache.miss").value
        assert first == second.tolist()
        assert after == before  # all hits on the warm pass

    def test_pooled_rows_equal_inline_rows(self):
        hw, comp, physical, _, _ = _ga_context()
        items = self._items(hw, comp, physical, count=10)
        with EvaluationEngine(
            comp, physical, hw, n_workers=1, memo=MemoCache()
        ) as engine:
            mi_arr, batch = engine.encode_rows(items)
            inline = engine.measure_rows(mi_arr, batch)
        with EvaluationEngine(
            comp, physical, hw, n_workers=4, min_pool_batch=1, memo=MemoCache()
        ) as engine:
            mi_arr, batch = engine.encode_rows(items)
            pooled = engine.measure_rows(mi_arr, batch)
        assert inline[0].tolist() == pooled[0].tolist()
        assert inline[1].tolist() == pooled[1].tolist()

    def test_row_watchdog_zero_mismatches(self):
        """Full-rate divergence watchdog: every batch-evaluated row
        re-checked through the scalar oracle, zero mismatches."""
        hw, comp, physical, _, _ = _ga_context()
        items = self._items(hw, comp, physical, count=8)
        obs.enable()
        with EvaluationEngine(
            comp,
            physical,
            hw,
            n_workers=1,
            memo=MemoCache(),
            divergence_rate=1.0,
        ) as engine:
            mi_arr, batch = engine.encode_rows(items)
            engine.measure_rows(mi_arr, batch)
        registry = obs.get_registry()
        assert registry.counter("engine.divergence.checked").value == len(items)
        assert registry.counter("engine.divergence.mismatched").value == 0.0


# ----------------------------------------------------------------------
# Tuner: pinned manifests
# ----------------------------------------------------------------------
QUICK = dict(
    population=8,
    generations=3,
    measure_top=8,
    prefilter_mappings=8,
    refine_rounds=1,
    refine_neighbors=4,
)

DEVICES = [
    ("v100", dict(m=64, n=64, k=64)),
    ("mali_g76", dict(m=32, n=32, k=32)),
    ("xeon_4110", dict(m=32, n=32, k=32)),
]

#: ``_tune`` on each device: best latency, best mapping and schedule,
#: number of trials, and the digest of the whole ``_manifest``.
TUNE_GOLDEN = {
    "v100": (
        3.8424070385118965,
        "[i1, i2, r1] <- [(i) mod 16, (j) mod 16, (k) mod 16]",
        "t_i1: warp=2 seq=1; t_i2: warp=2 seq=1; reduce_stage=4; "
        "double_buffer=True; unroll=1 vectorize=4",
        31,
        "2aa22116f3ee1fe7cff70c0da2476915c628747966a93d6d2361de047a82b5b6",
    ),
    "mali_g76": (
        10.226575632095058,
        "[i1, r1] <- [(j) mod 4, (k) mod 4]",
        "o_i: warp=2 seq=2; t_i1: warp=2 seq=2; reduce_stage=2; "
        "double_buffer=False; unroll=2 vectorize=2",
        30,
        "9ddbb5b7c92530edafe645995eab9257c972d345e08d6df0b4f0579d9048ae48",
    ),
    "xeon_4110": (
        1.0906943325557017,
        "[i1, r1] <- [(j) mod 16, (k) mod 4]",
        "o_i: warp=1 seq=8; t_i1: warp=1 seq=1; reduce_stage=4; "
        "double_buffer=True; unroll=4 vectorize=2",
        28,
        "b68b16d9688ebf64d7e523b66a69578342a348f31e3671bf71254a372055bdab",
    ),
}

#: v100 ``_tune`` with obs on: engine.cache.hit, engine.cache.miss,
#: model.predictions, tuner.measurements.
COUNTERS_GOLDEN = (4.0, 35.0, 19.0, 20.0)

#: v100 ``_tune`` at a divergence rate: candidates the watchdog checks.
WATCHDOG_CHECKED_GOLDEN = {0.0: 0.0, 1.0: 35.0}


def _manifest(result):
    """Everything a run manifest derives from: best candidate, funnel
    width, and every trial's (mapping, schedule, predicted, measured)."""
    return {
        "best_us": result.best_us,
        "best_mapping": result.best.physical.compute.describe(),
        "best_schedule": result.best.schedule.describe(),
        "num_mappings": result.num_mappings,
        "trials": [
            (
                t.mapping_index,
                t.scheduled.schedule.describe(),
                t.predicted_us,
                t.measured_us,
            )
            for t in result.trials
        ],
    }


def _tune(hw_name, params, **overrides):
    reset_global_memo()
    config = TunerConfig(n_workers=1, **QUICK)
    config = dataclasses.replace(config, **overrides)
    return Tuner(get_hardware(hw_name), config).tune(
        make_operator("GMM", **params)
    )


class TestTunerGaArrays:
    """The tuner's row-path exploration against pinned manifests."""

    @pytest.mark.parametrize("hw_name,params", DEVICES)
    def test_identity_on_three_devices(self, hw_name, params):
        manifest = _manifest(_tune(hw_name, params))
        best_us, mapping, schedule, trials, digest = TUNE_GOLDEN[hw_name]
        assert manifest["best_us"] == best_us
        assert manifest["best_mapping"] == mapping
        assert manifest["best_schedule"] == schedule
        assert len(manifest["trials"]) == trials
        assert _sha(manifest) == digest

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_identity_for_worker_counts(self, n_workers):
        """n_workers is an execution knob: pooled or not, the tune
        result is the pinned one, byte for byte."""
        hw_name, params = DEVICES[0]
        result = _tune(hw_name, params, n_workers=n_workers, min_pool_batch=1)
        assert _sha(_manifest(result)) == TUNE_GOLDEN[hw_name][-1]

    def test_cache_counters_equivalent(self):
        """The manifest's cache telemetry is pinned too: the row-keyed
        memo serves a fixed number of hits and misses (prefilter rows
        seed the entries the GA's seeds re-hit)."""
        obs.enable()
        _tune("v100", DEVICES[0][1])
        registry = obs.get_registry()
        counters = (
            registry.counter("engine.cache.hit").value,
            registry.counter("engine.cache.miss").value,
            registry.counter("model.predictions").value,
            registry.counter("tuner.measurements").value,
        )
        assert counters == COUNTERS_GOLDEN

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_watchdog_parity_across_modes(self, rate):
        """The watchdog checks the pinned number of candidates, never
        mismatches, and does not perturb the tune."""
        obs.enable()
        result = _tune("v100", DEVICES[0][1], divergence_rate=rate)
        registry = obs.get_registry()
        checked = registry.counter("engine.divergence.checked").value
        assert checked == WATCHDOG_CHECKED_GOLDEN[rate]
        assert registry.counter("engine.divergence.mismatched").value == 0.0
        assert _sha(_manifest(result)) == TUNE_GOLDEN["v100"][-1]


# ----------------------------------------------------------------------
# Property: vectorized column ops stay inside the space
# ----------------------------------------------------------------------
PROPERTY_CASES = [
    ("v100", "GMM", dict(m=64, n=64, k=64)),
    ("a100", "GMM", dict(m=128, n=64, k=64)),
    ("xeon_4110", "GMM", dict(m=32, n=32, k=32)),
    ("mali_g76", "GMM", dict(m=32, n=32, k=32)),
    ("axpy_accel", "C3D", dict(n=1, c=4, k=4, d=4, h=6, w=6, t=2, r=2, s=2)),
    ("gemv_accel", "GMV", dict(m=64, k=64)),
    ("conv_accel", "C3D", dict(n=1, c=4, k=4, d=4, h=6, w=6, t=2, r=2, s=2)),
]

_SPACE_CACHE = {}


def _space_for(case):
    if case not in _SPACE_CACHE:
        hw_name, op, params = PROPERTY_CASES[case]
        hw = get_hardware(hw_name)
        comp = make_operator(op, **params)
        pm = _mappings_for(hw, comp, limit=1)[0]
        _SPACE_CACHE[case] = ScheduleSpace(
            pm,
            max_warps_per_block=hw.max_warps_per_subcore * hw.subcores_per_core,
        )
    return _SPACE_CACHE[case]


class TestColumnOpsStayInSpace:
    @settings(max_examples=40, deadline=None)
    @given(
        case=st.integers(0, len(PROPERTY_CASES) - 1),
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 8),
    )
    def test_sampled_and_mutated_rows_are_accepted(self, case, seed, rows):
        """Every intrinsic kind (wmma, AVX-512, Mali dot, vaxpy, vgemv,
        vconv): vectorized samples and their mutations all decode to
        schedules inside the space's drawing domains."""
        space = _space_for(case)
        rng = np.random.default_rng(seed)
        u = rng.random((rows, space.uniforms_per_sample))
        warp, seq, stage, db, un, ve = space.sample_columns(u)
        batch = ScheduleBatch(
            warp=warp,
            seq=seq,
            reduce_stage=stage,
            double_buffer=db,
            unroll=un,
            vectorize=ve,
        )
        for schedule in schedules_from_rows(space.spatial_names, batch):
            assert space.accepts(schedule)
        mu = rng.random((rows, MUTATE_UNIFORMS))
        warp, seq, stage, db, un, ve = space.mutate_columns(
            batch.warp,
            batch.seq,
            batch.reduce_stage,
            batch.double_buffer,
            batch.unroll,
            batch.vectorize,
            mu,
        )
        mutated = ScheduleBatch(
            warp=warp,
            seq=seq,
            reduce_stage=stage,
            double_buffer=db,
            unroll=un,
            vectorize=ve,
        )
        for schedule in schedules_from_rows(space.spatial_names, mutated):
            assert space.accepts(schedule)

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.integers(0, len(PROPERTY_CASES) - 1),
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 6),
    )
    def test_column_ops_match_scalar_twins(self, case, seed, rows):
        """The vectorized decoders and their scalar twins read the same
        uniform rows to the same schedules — the protocol underneath
        every bit-identity claim in this file."""
        space = _space_for(case)
        rng = np.random.default_rng(seed)
        u = rng.random((rows, space.uniforms_per_sample))
        warp, seq, stage, db, un, ve = space.sample_columns(u)
        batch = ScheduleBatch(
            warp=warp,
            seq=seq,
            reduce_stage=stage,
            double_buffer=db,
            unroll=un,
            vectorize=ve,
        )
        vec = schedules_from_rows(space.spatial_names, batch)
        for i in range(rows):
            scalar = space.sample_with_uniforms(u[i])
            assert vec[i].describe() == scalar.describe()
        mu = rng.random((rows, MUTATE_UNIFORMS))
        warp, seq, stage, db, un, ve = space.mutate_columns(
            batch.warp,
            batch.seq,
            batch.reduce_stage,
            batch.double_buffer,
            batch.unroll,
            batch.vectorize,
            mu,
        )
        mutated = ScheduleBatch(
            warp=warp,
            seq=seq,
            reduce_stage=stage,
            double_buffer=db,
            unroll=un,
            vectorize=ve,
        )
        vec_mut = schedules_from_rows(space.spatial_names, mutated)
        for i in range(rows):
            scalar = space.mutate_with_uniforms(vec[i], mu[i])
            assert vec_mut[i].describe() == scalar.describe()


# ----------------------------------------------------------------------
# Describe memo
# ----------------------------------------------------------------------
class TestDescribeMemo:
    def test_describe_is_rendered_once(self):
        hw, comp, physical, spaces, _ = _ga_context()
        schedule = spaces[0].sample(random.Random(1))
        first = schedule.describe()
        assert schedule.describe() is first  # memoized, not re-rendered

    def test_memo_survives_and_matches_fresh_render(self):
        hw, comp, physical, spaces, _ = _ga_context()
        schedule = spaces[0].sample(random.Random(2))
        twin = dataclasses.replace(schedule)
        assert schedule.describe() == twin.describe()
