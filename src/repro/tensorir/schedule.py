"""Schedule = subgraph + primitive sequence.

``Schedule.apply()`` returns the loop nest the sequence builds.  It has
no interpreter of its own: the nest is the concretized run of
``repro.analysis.absint.Interpreter``, the one code that gives the
primitive kinds a meaning, so ``apply()`` raises :class:`ScheduleError`
(an ``AbsIntError``) on exactly the sequences the static verifier
rejects, at the first step it flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.tensorir.loops import LoopNest
from repro.tensorir.primitives import Primitive
from repro.tensorir.subgraph import Subgraph


class ScheduleError(Exception):
    """A primitive could not be applied to the current loop nest."""


#: Max allowed ratio of padded iterations to the true extent for one split
#: (DESIGN.md §6: bounded padding keeps intra-task latency spreads sane).
#: Shared by the sampler's by-construction check and the interpreter's
#: E103 rule so the two can never drift apart.
PAD_ALLOWANCE: float = 0.25


def ceil_div(a, b):
    """``ceil(a / b)`` for positive integers, exactly, on Python ints and
    int64 arrays alike.  Equal to ``math.ceil(a / b)`` whenever
    ``a < 2**53``: a float quotient can then round onto an integer only
    when it is one."""
    return -(-a // b)


def split_parts(extent: int, factors: tuple[int, ...]) -> tuple[int, ...]:
    """Extents of the loops produced by splitting ``extent`` by ``factors``.

    Factors are the inner-loop extents (innermost last); the outer loop
    absorbs the remainder with ceil-division, padding the domain when the
    factors do not divide the extent.  Extents and factors are >= 1, so
    the outer loop is too.
    """
    return (ceil_div(extent, math.prod(factors)), *factors)


def pads_beyond_allowance(padded, extent):
    """The E103 rule: a split may pad ``extent`` to at most
    ``(1 + PAD_ALLOWANCE) * extent`` iterations.  On Python ints and
    int64 arrays alike (exact while ``padded < 2**53``)."""
    return padded > extent * (1.0 + PAD_ALLOWANCE)


@dataclass
class Schedule:
    """A primitive sequence attached to a subgraph and a target."""

    subgraph: Subgraph
    primitives: tuple[Primitive, ...]
    target: str = "cpu"

    def __post_init__(self) -> None:
        self.primitives = tuple(self.primitives)

    def apply(self) -> LoopNest:
        """Apply every primitive, returning the resulting loop nest."""
        # Imported at call time: repro.analysis imports repro.tensorir.
        from repro.analysis.absint import profile

        return profile(self.subgraph, self.primitives, self.target).to_nest()

    def __len__(self) -> int:
        return len(self.primitives)


__all__ = [
    "PAD_ALLOWANCE",
    "Schedule",
    "ScheduleError",
    "ceil_div",
    "pads_beyond_allowance",
    "split_parts",
]
