"""The per-candidate sampler that sketch plans replaced, kept as their oracle.

Every candidate rebuilds its whole structure here: the tile-level
count per axis, the S..S R S R S tile order, the FSP source lookup and
the annotation passes, each interleaved with the rng draws that fill it.
``repro.tensorir.sampler.ScheduleSampler`` must emit the same sequences
and leave the ``np.random.Generator`` in the same state after every
batch (``tests/test_sampler_plan.py``).  Imports no ``repro`` sampler
code, so a change there cannot move the oracle with it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.tensorir import primitives as P
from repro.tensorir.primitives import Primitive
from repro.tensorir.schedule import Schedule, pads_beyond_allowance, split_parts
from repro.tensorir.sketch import SketchConfig
from repro.tensorir.subgraph import Subgraph


@lru_cache(maxsize=4096)
def _divisors(n: int) -> tuple[int, ...]:
    # Memoized as a tuple: the sampler asks for the same few extents'
    # divisors ~100K times per five-pool build, and a shared tuple cannot
    # be mutated by one caller under another.
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def _choice(rng: np.random.Generator, items: list[int]) -> int:
    return int(items[int(rng.integers(0, len(items)))])


class ReferenceSampler:
    """Samples one primitive sequence per call; stateless across calls."""

    def __init__(self, config: SketchConfig):
        self.config = config

    # -- factor sampling ------------------------------------------------

    def _n_inner(self, extent: int) -> int:
        levels = 3 if self.config.target == "cpu" else 2
        if extent >= 32:
            return levels
        if extent >= 8:
            return min(2, levels)
        if extent >= 2:
            return 1
        return 0

    def _sample_factors(self, extent: int, n_inner: int, rng: np.random.Generator) -> tuple[int, ...]:
        """A chain of inner factors whose product divides ``extent``, with
        an occasional bounded-padding perturbation (DESIGN.md §6)."""
        factors: list[int] = []
        remaining = extent
        for _ in range(n_inner):
            options = [d for d in _divisors(remaining) if d <= self.config.max_innermost_factor]
            f = _choice(rng, options)
            factors.append(f)
            remaining //= f
        if factors and rng.random() < self.config.padding_prob:
            bump = int(rng.integers(0, len(factors)))
            padded_factors = list(factors)
            padded_factors[bump] += 1
            padded = math.prod(split_parts(extent, tuple(padded_factors)))
            if not pads_beyond_allowance(padded, extent):
                factors = padded_factors
        return tuple(factors)

    # -- sketch construction --------------------------------------------

    def sample(self, subgraph: Subgraph, rng: np.random.Generator) -> Schedule:
        cfg = self.config
        if not subgraph.reduction_axes and rng.random() < cfg.inline_prob:
            return Schedule(subgraph, (P.compute_inline(),), target=cfg.target)

        prims: list[Primitive] = []
        cache_write = cfg.target == "cpu" and rng.random() < cfg.cache_write_prob
        if cache_write:
            prims.append(P.cache_write())

        # Split every axis, tracking the resulting tile-part names.  A
        # spatial axis whose extent matches an earlier split is sometimes
        # split with FSP to exercise the follow-split dataflow.
        spatial_parts: list[list[str]] = []
        reduction_parts: list[list[str]] = []
        sp_steps: dict[int, int] = {}  # extent -> index of an SP step in prims
        for axis in subgraph.axes:
            n_inner = self._n_inner(axis.extent)
            if axis.is_reduction:
                n_inner = min(n_inner, 1)
            if n_inner == 0:
                parts = [axis.name]
            else:
                src_step = sp_steps.get(axis.extent)
                if (
                    not axis.is_reduction
                    and src_step is not None
                    and len(prims[src_step].ints) - 1 == n_inner
                    and rng.random() < 0.3
                ):
                    prims.append(P.follow_split(axis.name, axis.extent, src_step))
                    factors = tuple(prims[src_step].ints[1:])
                else:
                    factors = self._sample_factors(axis.extent, n_inner, rng)
                    prims.append(P.split(axis.name, axis.extent, factors))
                    if not axis.is_reduction:
                        sp_steps.setdefault(axis.extent, len(prims) - 1)
                parts = list(P.split_names(axis.name, len(factors) + 1))
            (reduction_parts if axis.is_reduction else spatial_parts).append(parts)

        order = self._tile_order(spatial_parts, reduction_parts)
        prims.append(P.reorder(order))

        if cfg.target == "gpu":
            self._emit_gpu_annotations(prims, order, spatial_parts, rng)
        else:
            self._emit_cpu_annotations(prims, order, spatial_parts, cache_write, rng)

        if reduction_parts and rng.random() < cfg.rfactor_prob:
            split_reductions = [p for p in reduction_parts if len(p) > 1]
            if split_reductions:
                prims.append(P.rfactor(split_reductions[0][0]))

        return Schedule(subgraph, tuple(prims), target=cfg.target)

    def _tile_order(
        self, spatial_parts: list[list[str]], reduction_parts: list[list[str]]
    ) -> list[str]:
        """Interleave spatial and reduction tile levels, outermost first:
        S0.. S1.. R0.. S2.. R1.. S3.. — every part exactly once."""

        def level(parts: list[list[str]], i: int) -> list[str]:
            return [p[i] for p in parts if len(p) > i]

        order = level(spatial_parts, 0) + level(spatial_parts, 1) + level(reduction_parts, 0)
        order += level(spatial_parts, 2) + level(reduction_parts, 1) + level(spatial_parts, 3)
        return order

    # -- annotation emission --------------------------------------------

    def _emit_cpu_annotations(
        self,
        prims: list[Primitive],
        order: list[str],
        spatial_parts: list[list[str]],
        cache_write: bool,
        rng: np.random.Generator,
    ) -> None:
        annotated: set[str] = set()
        outer = [p[0] for p in spatial_parts]
        if len(outer) >= 2 and rng.random() < 0.7:
            prims.append(P.fuse(outer))
            fused = P.fused_name(tuple(outer))
            order[: len(outer)] = [fused]
            outer_axis = fused
        else:
            outer_axis = order[0] if order else ""
        if outer_axis:
            prims.append(P.annotate(outer_axis, "parallel"))
            annotated.add(outer_axis)
        innermost = order[-1] if order else ""
        if innermost and innermost not in annotated and rng.random() < 0.7:
            prims.append(P.annotate(innermost, "vectorize"))
            annotated.add(innermost)
        if cache_write and len(order) > 1 and rng.random() < 0.5:
            prims.append(P.compute_at(order[1]))
        if outer_axis and rng.random() < 0.6:
            step = _choice(rng, list(self.config.unroll_steps))
            prims.append(P.pragma(outer_axis, "auto_unroll_max_step", step))

    def _emit_gpu_annotations(
        self,
        prims: list[Primitive],
        order: list[str],
        spatial_parts: list[list[str]],
        rng: np.random.Generator,
    ) -> None:
        annotated: set[str] = set()

        def bind_level(parts_index: int, tag: str, at: int) -> None:
            names = [p[parts_index] for p in spatial_parts if len(p) > parts_index]
            if not names:
                return
            if len(names) >= 2:
                prims.append(P.fuse(names))
                fused = P.fused_name(tuple(names))
                order[at : at + len(names)] = [fused]
                target = fused
            else:
                target = names[0]
            prims.append(P.annotate(target, f"bind.{tag}"))
            annotated.add(target)

        bind_level(0, "blockIdx.x", 0)
        # The block level always collapses to one slot (every spatial axis
        # has a level-0 part, and >=2 of them get fused), so the thread
        # level starts right after it.
        bind_level(1, "threadIdx.x", 1)
        innermost = order[-1] if order else ""
        if innermost and innermost not in annotated and rng.random() < 0.5:
            prims.append(P.annotate(innermost, "vectorize"))
        if order and rng.random() < 0.5:
            step = _choice(rng, list(self.config.unroll_steps))
            prims.append(P.pragma(order[0], "auto_unroll_max_step", step))
