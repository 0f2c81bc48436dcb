"""Random schedule sampling: one sketch plan per subgraph, draws per candidate.

Fills a sketch's free parameters with draws from a caller-supplied
``np.random.Generator`` (seeded via ``repro.utils.rng`` — this module
never touches global randomness), or from a ``repro.utils.rng.Replay``
of one, which ``generate_many`` samples every batch through: the same
values and the same final Generator state, from PCG64 words taken in
bulk instead of ~15 scalar numpy calls a candidate.  The sampler
mirrors the verifier's axis-liveness bookkeeping so the sequences it
emits are valid by construction;
:class:`repro.tensorir.sketch.SketchGenerator` still checks every sample
fail-closed, with the verifier or (in the dataset build) with the
abstract interpreter.

CPU sketches follow Ansor's multi-level tiling: up to four spatial tile
levels and two reduction levels in S..S R S R S order, the outer spatial
tiles fused and parallelized, the innermost vectorized, plus optional
write-cache, rfactor, and unroll pragmas.  GPU sketches use three spatial
levels bound to blockIdx/threadIdx.

Only the draws differ between candidates, so a :class:`SketchPlan` fixes
the rest once per (config, subgraph): tile levels per axis, the tile
order, FSP sources, fuse and bind names, and every primitive no draw
decides.  :meth:`ScheduleSampler.sample` then makes, per candidate:

1. the inline coin, if the subgraph has no reduction axis;
2. the cache-write coin (cpu only);
3. per split axis, in subgraph order: the FSP coin (0.3) if an earlier
   spatial axis has the same extent (its first SP is the source), else
   one ``integers`` per tile level over the divisors of what remains
   that are <= ``max_innermost_factor``, the padding coin and the bump
   index;
4. cpu: the fuse coin (>= 2 outer loops), the vectorize coin (innermost
   loop not annotated), the compute-at coin (cache-write, >= 2 loops),
   then the unroll coin and step index; gpu: the vectorize coin, then the
   unroll coin and step index;
5. the rfactor coin, if there is a reduction axis.

A choice among one option draws nothing: ``integers(0, 1)`` returns
without advancing the bit generator, in numpy and by the replay's own
rule, so those calls are skipped.  ``tests/sampler_reference.py`` keeps
the per-candidate sampler this replaced as the oracle of that stream, on
the raw Generator.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.tensorir import primitives as P
from repro.tensorir.primitives import Primitive
from repro.tensorir.schedule import Schedule, pads_beyond_allowance, split_parts
from repro.tensorir.sketch import SketchConfig
from repro.tensorir.subgraph import Subgraph
from repro.utils.rng import Replay

#: PCG64 words a candidate draws: 12.7 on average over the pool subgraphs
#: on cpu and 10.0 on gpu (5–17 by subgraph).  Sizes a batch's replay chunks.
WORDS_PER_CANDIDATE = 12


@lru_cache(maxsize=4096)
def _divisors(n: int) -> tuple[int, ...]:
    # Memoized as a tuple: a shared tuple cannot be mutated by one caller
    # under another.
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n``, ascending (a fresh list per call)."""
    return list(_divisors(n))


def _pick(rng: "np.random.Generator | Replay", options):
    """``options[rng.integers(0, len(options))]``, skipping the call for a
    single option, which ``integers(0, 1)`` answers without a draw."""
    return options[rng.integers(0, len(options))] if len(options) != 1 else options[0]


class _Split(NamedTuple):
    """One split axis of a plan; ``follow`` holds its FSP step (source
    index without and with the leading CHW) when the FSP coin applies."""

    name: str
    extent: int
    levels: int
    follow: "tuple[Primitive, Primitive] | None"
    interned: "dict[tuple[int, ...], Primitive]"  # factors -> SP step


class SketchPlan:
    """Everything one (config, subgraph) fixes for all of its candidates.

    ``annotations`` holds one (head, vectorize, compute-at, unroll
    pragmas) entry per outcome of the cpu fuse coin (one entry on gpu).
    """

    def __init__(self, config: SketchConfig, subgraph: Subgraph):
        self.cpu = config.target == "cpu"
        self.inline = None if subgraph.reduction_axes else (P.compute_inline(),)
        self.cache_write = P.cache_write()
        self.splits: list[_Split] = []
        spatial: list[tuple[str, ...]] = []
        reduction: list[tuple[str, ...]] = []
        first_sp: dict[int, int] = {}  # extent -> split index of its first spatial SP
        for axis in subgraph.axes:
            e = axis.extent
            n = (3 if self.cpu else 2) if e >= 32 else 2 if e >= 8 else int(e >= 2)
            if axis.is_reduction:
                n = min(n, 1)
            parts = P.split_names(axis.name, n + 1) if n else (axis.name,)
            (reduction if axis.is_reduction else spatial).append(parts)
            if n:
                i = len(self.splits)
                src = i if axis.is_reduction else first_sp.setdefault(e, i)
                follow = None if src == i else (P.follow_split(axis.name, e, src),
                                                P.follow_split(axis.name, e, src + 1))
                self.splits.append(_Split(axis.name, e, n, follow, {}))

        def level(parts: list[tuple[str, ...]], i: int) -> list[str]:
            return [p[i] for p in parts if len(p) > i]

        order = level(spatial, 0) + level(spatial, 1) + level(reduction, 0)
        order += level(spatial, 2) + level(reduction, 1) + level(spatial, 3)
        self.reorder = P.reorder(order)
        self.fusable = self.cpu and len(spatial) >= 2
        if self.cpu:
            groups = [[(order[:1], "parallel")], [(level(spatial, 0), "parallel")]]
        else:
            groups = [[(level(spatial, 0), "bind.blockIdx.x"),
                       (level(spatial, 1), "bind.threadIdx.x")]]
        self.annotations = [self._annotate(config, order, g) for g in groups[: 1 + self.fusable]]
        self.p_vectorize, self.p_unroll = (0.7, 0.6) if self.cpu else (0.5, 0.5)
        self.has_reduction = bool(reduction)
        split_reductions = [p for p in reduction if len(p) > 1]
        self.rfactor = P.rfactor(split_reductions[0][0]) if split_reductions else None

    def _annotate(self, config: SketchConfig, order: list[str], groups) -> tuple:
        """Fuse each group of >= 2 names in place (group k lands at slot k:
        the groups before it have each collapsed to one loop), annotate it
        with its tag, then derive what the later coins may add."""
        order = list(order)
        head: list[Primitive] = []
        annotated: set[str] = set()
        for at, (names, tag) in enumerate(groups):
            if not names:
                continue
            target = names[0]
            if len(names) >= 2:
                target = P.fused_name(tuple(names))
                head.append(P.fuse(names))
                order[at : at + len(names)] = [target]
            head.append(P.annotate(target, tag))
            annotated.add(target)
        innermost = order[-1] if order else ""
        vectorize = (P.annotate(innermost, "vectorize")
                     if innermost and innermost not in annotated else None)
        compute_at = P.compute_at(order[1]) if self.cpu and len(order) > 1 else None
        unroll = (tuple(P.pragma(order[0], "auto_unroll_max_step", s) for s in config.unroll_steps)
                  if order else None)
        return tuple(head), vectorize, compute_at, unroll


class ScheduleSampler:
    """Samples one primitive sequence per call.

    Holds the plans and interned SP steps of the subgraphs it has sampled
    — one ``generate_many`` batch, which creates a sampler per call — so
    nothing outlives the batch.
    """

    def __init__(self, config: SketchConfig):
        self.config = config
        self._plans: dict[Subgraph, SketchPlan] = {}
        self._last: tuple[Subgraph, SketchPlan] | None = None
        self._options: dict[int, tuple[int, ...]] = {}  # remaining extent -> factor options

    def _plan(self, subgraph: Subgraph) -> SketchPlan:
        """The subgraph's plan, keyed by its (frozen) content.  The held
        last subgraph lets a batch of one object skip the ~1.5 µs hash."""
        if self._last is None or self._last[0] is not subgraph:
            plan = self._plans.get(subgraph)
            if plan is None:
                plan = self._plans[subgraph] = SketchPlan(self.config, subgraph)
            self._last = (subgraph, plan)
        return self._last[1]

    def sample(self, subgraph: Subgraph, rng: "np.random.Generator | Replay") -> Schedule:
        """One candidate's sequence, drawn from ``rng`` in the order the
        module docstring lists; a ``Generator`` and a ``Replay`` of it
        give the same sequence and leave it in the same state."""
        cfg = self.config
        plan = self._plan(subgraph)
        random = rng.random
        if plan.inline is not None and random() < cfg.inline_prob:
            return Schedule(subgraph, plan.inline, target=cfg.target)
        cache_write = plan.cpu and random() < cfg.cache_write_prob
        prims = [plan.cache_write] if cache_write else []
        for split in plan.splits:
            if split.follow is not None and random() < 0.3:
                prims.append(split.follow[cache_write])
                continue
            prims.append(self._split(split, rng))
        prims.append(plan.reorder)
        head, vectorize, compute_at, unroll = plan.annotations[plan.fusable and random() < 0.7]
        prims += head
        if vectorize is not None and random() < plan.p_vectorize:
            prims.append(vectorize)
        if cache_write and compute_at is not None and random() < 0.5:
            prims.append(compute_at)
        if unroll is not None and random() < plan.p_unroll:
            prims.append(_pick(rng, unroll))
        if plan.has_reduction and random() < cfg.rfactor_prob and plan.rfactor is not None:
            prims.append(plan.rfactor)
        return Schedule(subgraph, tuple(prims), target=cfg.target)

    def _split(self, split: _Split, rng: "np.random.Generator | Replay") -> Primitive:
        """The batch's SP step for a chain of inner factors whose product
        divides the extent, with an occasional bounded-padding perturbation
        (DESIGN.md §6)."""
        factors: list[int] = []
        remaining = extent = split.extent
        for _ in range(split.levels):
            options = self._options.get(remaining)
            if options is None:
                cap = self.config.max_innermost_factor
                options = tuple(d for d in _divisors(remaining) if d <= cap)
                self._options[remaining] = options
            f = _pick(rng, options)
            factors.append(f)
            remaining //= f
        if rng.random() < self.config.padding_prob:
            padded = list(factors)
            padded[_pick(rng, range(split.levels))] += 1
            if not pads_beyond_allowance(math.prod(split_parts(extent, tuple(padded))), extent):
                factors = padded
        key = tuple(factors)
        prim = split.interned.get(key)
        if prim is None:
            prim = split.interned[key] = P.split(split.name, extent, key)
        return prim


__all__ = ["ScheduleSampler", "SketchPlan", "WORDS_PER_CANDIDATE", "divisors"]
