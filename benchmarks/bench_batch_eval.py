"""Benchmark: the batch-evaluation path (feature tables +
``batch_predict`` / ``batch_simulate``) and the array-native GA loop,
against the paper's scalar model.

Measurements, written to ``benchmarks/results/BENCH_batch_eval.json``:

1. **batch fitness throughput** — one GA-generation-shaped batch of
   schedule candidates pushed through ``EvaluationEngine.predict_many``
   / ``measure_many`` (cold memo each repetition, ``n_workers=1``)
   vs a direct loop of ``lower_schedule`` + ``predict_latency`` (+
   ``simulate_cycles``) over the same candidates.  The batch path must
   deliver at least **5x candidates/sec** on the model-only fitness
   batch, and its results must equal the scalar loop's bit for bit.
2. **GA-loop throughput** — a whole ``genetic_search_rows`` run (breed
   + dedup + memo keys + predict, cold memo each repetition) scored by
   the engine's ``predict_rows`` vs the same run scored one row at a
   time by the scalar model.  The two rankings must be identical.
3. **describe memo note** — ``Schedule.describe()`` is memoized on
   first render; the micro-benchmark records the cold render vs the
   memoized re-read, the win every trial record / dedup key touch of
   the same immutable schedule collects.

Runnable standalone (``python benchmarks/bench_batch_eval.py``; it has
one size) and re-exported by ``tests/test_batch_eval_bench.py`` so the
assertions run under the tier-1 command.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

import numpy as np

from repro.engine import EvaluationEngine, MemoCache
from repro.explore.genetic import Candidate, GeneticConfig, genetic_search_rows
from repro.frontends.operators import make_operator
from repro.isa.registry import intrinsics_for_target
from repro.mapping.generation import GenerationOptions, enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.model import get_hardware, predict_latency
from repro.schedule.features import schedules_from_rows
from repro.schedule.lowering import lower_schedule
from repro.schedule.space import ScheduleSpace, default_schedule
from repro.sim.timing import simulate_cycles

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
RESULT_FILE = "BENCH_batch_eval.json"

#: Candidates per fitness batch — a large GA generation: the batch
#: evaluators run in milliseconds, so the asserted >=5x contract is
#: measured at a realistic size even under the tier-1 command.
FITNESS_BATCH = 256
FITNESS_REPEATS = 5
MIN_FITNESS_SPEEDUP = 5.0

#: GA-loop budget for the end-to-end throughput section — a population
#: large enough that the loop machinery (breed/dedup/keys), not constant
#: per-call overhead, dominates, as the paper's Table 6 spaces imply.
GA_LOOP_CONFIG = GeneticConfig(population=256, generations=8, seed=0)
GA_LOOP_REPEATS = 3


def _context():
    comp = make_operator("GMM", m=64, n=64, k=64)
    hw = get_hardware("v100")
    physical = [
        lower_to_physical(m)
        for intr in intrinsics_for_target(hw.target)
        for m in enumerate_mappings(comp, intr, GenerationOptions())
    ]
    return comp, hw, physical


def _fitness_items(physical, hw, count):
    """A GA-generation-shaped batch: random schedules spread over all
    mappings, shuffled so groups interleave as they do in real batches."""
    rng = random.Random(2024)
    per_mapping = count // len(physical) + 1
    items = []
    for mi, pm in enumerate(physical):
        space = ScheduleSpace(
            pm,
            max_warps_per_block=hw.max_warps_per_subcore * hw.subcores_per_core,
        )
        items.extend((mi, space.sample(rng)) for _ in range(per_mapping))
    rng.shuffle(items)
    return items[:count]


def _scalar(physical, hw, schedule_of, mapping_index, measure):
    """The paper's scalar model (and simulator) on one lowered schedule."""
    sched = lower_schedule(physical[mapping_index], schedule_of)
    predicted = predict_latency(sched, hw).total_us
    if not measure:
        return predicted
    return predicted, simulate_cycles(sched, hw).total_us


def _best_of(repeats, run):
    best_s, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best_s = min(best_s, time.perf_counter() - start)
    return best_s, result


def run_fitness_throughput() -> dict:
    comp, hw, physical = _context()
    items = _fitness_items(physical, hw, FITNESS_BATCH)

    def batch_run(measure):
        # Cold memo every repetition: the engine is built inside the
        # timed call, as each tune builds its own.
        engine = EvaluationEngine(comp, physical, hw, n_workers=1, memo=MemoCache())
        return engine.measure_many(items) if measure else engine.predict_many(items)

    def scalar_run(measure):
        return [_scalar(physical, hw, s, mi, measure) for mi, s in items]

    report = {"batch_size": len(items), "num_mappings": len(physical)}
    for measure, label in ((False, "fitness"), (True, "measured")):
        batch_s, batch_results = _best_of(FITNESS_REPEATS, lambda: batch_run(measure))
        scalar_s, scalar_results = _best_of(
            FITNESS_REPEATS, lambda: scalar_run(measure)
        )
        report[label] = {
            "batch_cand_per_s": len(items) / batch_s,
            "scalar_cand_per_s": len(items) / scalar_s,
            "batch_wall_s": batch_s,
            "scalar_wall_s": scalar_s,
            "speedup": scalar_s / batch_s if batch_s else 0.0,
            "identical": batch_results == scalar_results,
        }
    return report


def _ga_context(comp, hw, physical):
    max_warps = hw.max_warps_per_subcore * hw.subcores_per_core
    spaces = [
        ScheduleSpace(pm, max_warps_per_block=max_warps) for pm in physical
    ]
    seeds = [
        Candidate(i, default_schedule(pm, max_warps_per_block=max_warps))
        for i, pm in enumerate(physical)
    ]
    return spaces, seeds


def _ranked_fingerprint(pairs):
    return [
        (c.mapping_index, c.schedule.describe(), cost) for c, cost in pairs
    ]


def run_ga_loop_throughput() -> dict:
    """One whole GA run — breed + dedup + memo keys + predict — scored by
    the batch engine vs one row at a time by the scalar model."""
    comp, hw, physical = _context()
    spaces, seeds = _ga_context(comp, hw, physical)
    cfg = GA_LOOP_CONFIG

    def scalar_rows(mapping_indices, batch):
        costs = []
        for i, mi in enumerate(mapping_indices):
            names = spaces[int(mi)].spatial_names
            (schedule,) = schedules_from_rows(names, batch, [i])
            costs.append(_scalar(physical, hw, schedule, int(mi), measure=False))
        return np.asarray(costs)

    def batch_run():
        engine = EvaluationEngine(comp, physical, hw, n_workers=1, memo=MemoCache())
        return genetic_search_rows(
            physical, engine.predict_rows, cfg, seeds=seeds, spaces=spaces
        )

    batch_s, batch_result = _best_of(GA_LOOP_REPEATS, batch_run)
    scalar_s, scalar_result = _best_of(
        GA_LOOP_REPEATS,
        lambda: genetic_search_rows(
            physical, scalar_rows, cfg, seeds=seeds, spaces=spaces
        ),
    )
    evaluated = len(batch_result)
    return {
        "population": cfg.population,
        "generations": cfg.generations,
        "candidates_evaluated": evaluated,
        "batch_cand_per_s": evaluated / batch_s,
        "scalar_cand_per_s": evaluated / scalar_s,
        "batch_wall_s": batch_s,
        "scalar_wall_s": scalar_s,
        "speedup": scalar_s / batch_s if batch_s else 0.0,
        "identical": _ranked_fingerprint(batch_result.candidates(spaces))
        == _ranked_fingerprint(scalar_result.candidates(spaces)),
    }


def run_describe_memo_note() -> dict:
    """Micro-benchmark note: Schedule.describe() cold render vs the
    memoized re-read (the schedule is immutable, so every later touch —
    memo key, dedup key, jitter string — is the memoized path)."""
    comp, hw, physical = _context()
    spaces, _ = _ga_context(comp, hw, physical)
    rng = random.Random(99)
    schedules = [spaces[0].sample(rng) for _ in range(512)]

    start = time.perf_counter()
    for s in schedules:
        s.describe()
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    for s in schedules:
        s.describe()
    memo_s = time.perf_counter() - start
    return {
        "schedules": len(schedules),
        "cold_render_us_each": cold_s / len(schedules) * 1e6,
        "memoized_us_each": memo_s / len(schedules) * 1e6,
        "speedup": cold_s / memo_s if memo_s else float("inf"),
    }


def run_bench() -> dict:
    report = {
        "fitness_throughput": run_fitness_throughput(),
        "ga_loop": run_ga_loop_throughput(),
        "describe_memo": run_describe_memo_note(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / RESULT_FILE
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_bench(report: dict) -> None:
    """The batch path's contract: bit-identical to the scalar model and
    much faster."""
    fitness = report["fitness_throughput"]
    for label in ("fitness", "measured"):
        section = fitness[label]
        assert section["identical"], (
            f"batch {label} results diverged from the scalar model: {section}"
        )
    assert fitness["fitness"]["speedup"] >= MIN_FITNESS_SPEEDUP, (
        f"batch fitness must be >= {MIN_FITNESS_SPEEDUP}x the scalar model, "
        f"got {fitness['fitness']['speedup']:.2f}x"
    )

    ga_loop = report["ga_loop"]
    assert ga_loop["identical"], (
        f"GA ranking under the batch engine diverged from the scalar model: "
        f"{ga_loop}"
    )

    memo = report["describe_memo"]
    assert memo["speedup"] >= 2.0, (
        f"memoized describe() should beat a fresh render handily: {memo}"
    )


def test_batch_eval_bench_quick():
    report = run_bench()
    check_bench(report)
    fitness = report["fitness_throughput"]
    ga_loop, memo = report["ga_loop"], report["describe_memo"]
    print(
        f"\nfitness batch ({fitness['batch_size']} candidates): "
        f"batch {fitness['fitness']['batch_cand_per_s']:,.0f} cand/s, "
        f"scalar {fitness['fitness']['scalar_cand_per_s']:,.0f} cand/s "
        f"({fitness['fitness']['speedup']:.1f}x); "
        f"measured pass {fitness['measured']['speedup']:.1f}x"
        f"\nGA loop ({ga_loop['candidates_evaluated']} evaluated): "
        f"batch {ga_loop['batch_cand_per_s']:,.0f} cand/s, scalar "
        f"{ga_loop['scalar_cand_per_s']:,.0f} cand/s ({ga_loop['speedup']:.1f}x)"
        f"\ndescribe memo: {memo['cold_render_us_each']:.2f}us cold vs "
        f"{memo['memoized_us_each']:.3f}us memoized ({memo['speedup']:.0f}x)"
    )


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    report = run_bench()
    check_bench(report)
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {RESULTS_DIR / RESULT_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
