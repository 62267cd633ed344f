"""Random-search baseline explorer.

Used by ablation benches to quantify what the genetic algorithm and the
model-guided measurement filter buy over uniform sampling of the joint
space.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.explore.genetic import Candidate
from repro.mapping.physical import PhysicalMapping
from repro.schedule.space import ScheduleSpace


def random_search(
    mappings: Sequence[PhysicalMapping],
    fitness: Callable[[Candidate], float],
    trials: int = 128,
    seed: int = 0,
) -> list[tuple[Candidate, float]]:
    """Uniformly sample the joint space; returns (candidate, cost) sorted
    ascending by cost.

    Every candidate is drawn first, then scored with one ``fitness`` call
    each, so the RNG stream never depends on the evaluator.
    """
    if not mappings:
        raise ValueError("no mappings to search over")
    rng = random.Random(seed)
    spaces = [ScheduleSpace(pm) for pm in mappings]
    candidates: list[Candidate] = []
    for _ in range(trials):
        mi = rng.randrange(len(mappings))
        candidates.append(Candidate(mi, spaces[mi].sample(rng)))
    costs = [fitness(c) for c in candidates]
    return sorted(zip(candidates, costs), key=lambda pair: pair[1])
