"""Loop-nest IR — the result of applying a schedule to a subgraph.

A :class:`LoopNest` is an ordered tuple of loops (outermost first) plus
stage-level flags (cache write, inline, compute-at).  The analytical
hardware models in ``repro.simhw`` read this structure; the TLP cost model
never does — that asymmetry is the paper's whole point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class LoopKind(str, Enum):
    SERIAL = "serial"
    PARALLEL = "parallel"
    VECTORIZED = "vectorized"
    UNROLLED = "unrolled"
    BOUND = "bound"  # bound to a GPU thread axis


#: Annotation token -> loop kind (``bind.*`` handled separately).
ANNOTATION_KINDS: dict[str, LoopKind] = {
    "parallel": LoopKind.PARALLEL,
    "vectorize": LoopKind.VECTORIZED,
    "unroll": LoopKind.UNROLLED,
}


@dataclass(frozen=True)
class Interval:
    """An integer interval ``[lo, hi]`` of useful-iteration counts.

    ``hi`` is the loop's (padded) trip count — exact, since padded splits
    run all iterations and mask the padding.  ``lo`` is the minimum
    number of useful iterations any instance of the loop performs; the
    two coincide unless some enclosing split padded the axis.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def __mul__(self, other: "Interval") -> "Interval":
        return Interval(self.lo * other.lo, self.hi * other.hi)

    def __str__(self) -> str:
        return str(self.hi) if self.exact else f"[{self.lo}, {self.hi}]"


class Loop(NamedTuple):
    """One loop of the nest (outermost-first order).

    Immutable, so the abstract interpreter (``repro.analysis.absint``)
    shares the subgraph's initial loops, replaces a loop when a primitive
    changes it, and hands its final loop tuple to :class:`LoopNest` as is.
    """

    name: str
    #: The concrete (padded) trip count, the upper end of :attr:`trip`.
    extent: int
    #: The fewest useful iterations, the lower end of :attr:`trip`.
    lo: int
    is_reduction: bool = False
    kind: LoopKind = LoopKind.SERIAL
    thread_tag: str = ""  # e.g. "blockIdx.x" when kind is BOUND
    pragmas: tuple[tuple[str, int], ...] = ()
    rfactored: bool = False

    @property
    def trip(self) -> Interval:
        return Interval(self.lo, self.extent)


@dataclass
class LoopNest:
    """An ordered loop nest (outermost first) with stage flags."""

    subgraph_name: str
    loops: tuple[Loop, ...]
    cache_write: bool = False
    inlined: bool = False
    compute_at_axis: str = ""
    compute_root: bool = False

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def names(self) -> list[str]:
        return [l.name for l in self.loops]

    def loop(self, name: str) -> Loop:
        for l in self.loops:
            if l.name == name:
                return l
        raise KeyError(f"no loop {name!r} in nest of {self.subgraph_name!r}")

    @property
    def innermost(self) -> Loop:
        if not self.loops:
            raise ValueError(f"nest of {self.subgraph_name!r} has no loops")
        return self.loops[-1]

    def total_iterations(self) -> int:
        """Padded iteration count (product of loop extents)."""
        total = 1
        for l in self.loops:
            total *= l.extent
        return total

    def padding_ratio(self, domain_points: int) -> float:
        """Padded iterations over the subgraph's true domain size (>= 1)."""
        if domain_points <= 0:
            return math.inf
        return self.total_iterations() / domain_points

    def describe(self) -> str:
        """A readable one-loop-per-line dump, for logs and debugging."""
        lines = [f"nest {self.subgraph_name}"]
        for depth, l in enumerate(self.loops):
            tags = [l.kind.value]
            if l.thread_tag:
                tags.append(l.thread_tag)
            if l.is_reduction:
                tags.append("reduce")
            if l.rfactored:
                tags.append("rfactor")
            for name, value in l.pragmas:
                tags.append(f"{name}={value}")
            lines.append(f"{'  ' * (depth + 1)}for {l.name} in {l.extent}  [{', '.join(tags)}]")
        return "\n".join(lines)


__all__ = ["ANNOTATION_KINDS", "Interval", "Loop", "LoopKind", "LoopNest"]
