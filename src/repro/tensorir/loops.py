"""Loop-nest IR — the result of applying a schedule to a subgraph.

A :class:`LoopNest` is an ordered list of loops (outermost first) plus
stage-level flags (cache write, inline, compute-at).  The analytical
hardware models in ``repro.simhw`` read this structure; the TLP cost model
never does — that asymmetry is the paper's whole point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


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
class Loop:
    """One loop of the nest."""

    name: str
    extent: int
    is_reduction: bool = False
    kind: LoopKind = LoopKind.SERIAL
    thread_tag: str = ""  # e.g. "blockIdx.x" when kind is BOUND
    pragmas: tuple[tuple[str, int], ...] = field(default=())
    rfactored: bool = False


@dataclass
class LoopNest:
    """An ordered loop nest (outermost first) with stage flags."""

    subgraph_name: str
    loops: list[Loop]
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


__all__ = ["ANNOTATION_KINDS", "Loop", "LoopKind", "LoopNest"]
