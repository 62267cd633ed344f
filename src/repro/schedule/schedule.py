"""Schedule parameterisation.

After physical mapping, the computation is a *macro loop nest* over tile
coordinates (one macro dimension per intrinsic iteration) plus the
unmapped software iterations.  A :class:`Schedule` assigns each spatial
macro dimension a three-level split (``tile``), binds the outer part to
parallel cores (``bind``/``parallel``), assigns warps within a block, and
stages reductions through the shared buffer (``cache``), with
``unroll``/``vectorize`` knobs — the optimisation set of Table 3a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DimSplit:
    """Split of one spatial macro dimension.

    The dimension's ``extent`` tiles are covered by
    ``num_blocks x warp x seq`` slots where
    ``num_blocks = ceil(extent / (warp * seq))``:

    * block level — bound to cores (``bind``),
    * warp level — ``warp`` tiles computed by parallel warps in a block,
    * sequential level — ``seq`` tiles iterated inside one warp.
    """

    warp: int = 1
    seq: int = 1

    def __post_init__(self) -> None:
        if self.warp < 1 or self.seq < 1:
            raise ValueError("split factors must be >= 1")

    @property
    def tiles_per_block(self) -> int:
        return self.warp * self.seq

    def num_blocks(self, extent: int) -> int:
        return math.ceil(extent / self.tiles_per_block)


@dataclass(frozen=True)
class Schedule:
    """Schedule parameters for one scheduled mapping.

    Attributes:
        splits: per spatial macro dimension name -> :class:`DimSplit`.
            Missing dimensions default to ``DimSplit(1, 1)`` (fully
            block-parallel).
        reduce_stage: reduction tiles staged into shared memory per round
            (the ``cache`` optimisation); larger values increase reuse and
            shared-memory footprint.
        double_buffer: overlap staging with compute (2x shared footprint).
        unroll: innermost sequential unroll factor (reduces loop overhead).
        vectorize: vector width of the global<->shared copy code.
    """

    splits: dict[str, DimSplit] = field(default_factory=dict)
    reduce_stage: int = 1
    double_buffer: bool = False
    unroll: int = 1
    vectorize: int = 4

    def __post_init__(self) -> None:
        if self.reduce_stage < 1:
            raise ValueError("reduce_stage must be >= 1")
        if self.unroll < 1 or self.vectorize < 1:
            raise ValueError("unroll/vectorize must be >= 1")

    def split_for(self, dim_name: str) -> DimSplit:
        return self.splits.get(dim_name, DimSplit(1, 1))

    def to_dict(self) -> dict:
        """Plain-JSON descriptor; the inverse of :meth:`from_dict`.

        The persistent compile cache stores the winning schedule in this
        form.
        """
        return {
            "splits": {name: [s.warp, s.seq] for name, s in sorted(self.splits.items())},
            "reduce_stage": self.reduce_stage,
            "double_buffer": self.double_buffer,
            "unroll": self.unroll,
            "vectorize": self.vectorize,
        }

    @staticmethod
    def from_dict(data: dict) -> "Schedule":
        """Rebuild a schedule from a :meth:`to_dict` descriptor.

        Strict by design: a descriptor always comes from ``to_dict``, so
        a missing field means corrupt input (e.g. a hand-edited cache
        entry) and raises rather than silently defaulting.
        """
        return Schedule(
            splits={
                name: DimSplit(warp=int(warp), seq=int(seq))
                for name, (warp, seq) in data["splits"].items()
            },
            reduce_stage=int(data["reduce_stage"]),
            double_buffer=bool(data["double_buffer"]),
            unroll=int(data["unroll"]),
            vectorize=int(data["vectorize"]),
        )

    def describe(self) -> str:
        # Memoized: the string is the schedule half of every memo key,
        # GA dedup key and jitter key, so the same immutable schedule is
        # described many times per tune.  The cache rides the instance
        # __dict__ (present even on frozen dataclasses) and is invisible
        # to dataclass equality/repr, which only look at fields.
        cached = self.__dict__.get("_describe")
        if cached is not None:
            return cached
        parts = [
            f"{name}: warp={s.warp} seq={s.seq}" for name, s in sorted(self.splits.items())
        ]
        parts.append(f"reduce_stage={self.reduce_stage}")
        parts.append(f"double_buffer={self.double_buffer}")
        parts.append(f"unroll={self.unroll} vectorize={self.vectorize}")
        rendered = "; ".join(parts)
        object.__setattr__(self, "_describe", rendered)
        return rendered
