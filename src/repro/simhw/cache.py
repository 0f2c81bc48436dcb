"""Nest features and the tile-footprint / cache-hierarchy reuse model.

The analytical models never walk :class:`repro.tensorir.loops.LoopNest`
objects in their hot path — :class:`NestFeatures` flattens a batch of
applied nests into right-aligned ``[N, D]`` float32/int8 arrays once, and
every cost term in ``cpu_model``/``gpu_model`` is vectorized over the
batch.  That is what lets ``measure_many`` label ~10k schedules in
seconds on one core.

The cache model (:func:`memory_cycles`) is a classic tile-reuse
argument: for each cache level, find the deepest loop-suffix tile whose
working set fits the level, then charge the traffic that tile generates
against the next level's bandwidth.  Working-set size is approximated as
``bytes_per_point * points ** REUSE_EXPONENT`` — the sublinear exponent
stands in for inter-iteration reuse (a matmul tile of ``t`` points
touches ~``t**(2/3)`` data).  Good multi-level tiling lands suffix
products near the cache capacities and is rewarded with less traffic,
which is exactly the signal the TLP cost model has to learn from split
factors alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.simhw.platform import Platform
from repro.tensorir.loops import Loop, LoopKind, LoopNest
from repro.tensorir.subgraph import Subgraph

#: Loop-kind codes in the ``kinds`` feature plane (pad columns are SERIAL
#: with extent 1, which every cost term treats as a no-op loop).
K_SERIAL, K_PARALLEL, K_VECTORIZED, K_UNROLLED, K_BOUND = 0, 1, 2, 3, 4

_KIND_CODE = {
    LoopKind.SERIAL: K_SERIAL,
    LoopKind.PARALLEL: K_PARALLEL,
    LoopKind.VECTORIZED: K_VECTORIZED,
    LoopKind.UNROLLED: K_UNROLLED,
    LoopKind.BOUND: K_BOUND,
}

#: GPU thread-tag codes in the ``tags`` plane.
TAG_NONE, TAG_BLOCK, TAG_THREAD, TAG_VTHREAD = 0, 1, 2, 3

#: Bytes one iteration point keeps live (float32 accumulator proxy).
BYTES_PER_POINT: float = 4.0

#: Working set of a tile with ``t`` points is ``BYTES_PER_POINT * t**REUSE_EXPONENT``
#: — the sublinear exponent models inter-iteration data reuse.
REUSE_EXPONENT: float = 2.0 / 3.0

#: Middle-loop extents >= this that are powers of two alias cache sets /
#: shared-memory banks.  The single source of truth for this geometry
#: constant: the verifier's W301 default and the abstract interpreter
#: import it from here, so the static smells mark exactly what the
#: simulated hardware punishes.
POW2_CONFLICT_THRESHOLD: int = 64


def _tag_code(thread_tag: str) -> int:
    if not thread_tag:
        return TAG_NONE
    if thread_tag.startswith("blockIdx"):
        return TAG_BLOCK
    if thread_tag.startswith("threadIdx"):
        return TAG_THREAD
    return TAG_VTHREAD


class LoopPlanes(NamedTuple):
    """Loop nests as right-aligned ``[N, D]`` planes: column ``D-1`` is
    each nest's innermost loop, and the left padding holds extent-1
    serial loops with no tag, so suffix products and "distance from
    innermost" are uniform array expressions."""

    extents: np.ndarray       # int64 — padded trip counts
    lows: np.ndarray          # int64 — useful-iteration floors
    kinds: np.ndarray         # int8 — K_* codes
    is_reduction: np.ndarray  # bool
    tags: np.ndarray          # int8 — TAG_* codes


def loop_codes(loop: Loop) -> tuple[int, bool, int]:
    """A loop's ``kinds``, ``is_reduction`` and ``tags`` plane entries."""
    return _KIND_CODE[loop.kind], loop.is_reduction, _tag_code(loop.thread_tag)


def loop_planes(nests: Sequence[Sequence[Loop]], width: int) -> LoopPlanes:
    """Right-align each nest's loops (outermost first) into ``width`` columns."""
    n = len(nests)
    extents = np.ones((n, width), dtype=np.int64)
    lows = np.ones((n, width), dtype=np.int64)
    kinds = np.zeros((n, width), dtype=np.int8)
    is_red = np.zeros((n, width), dtype=bool)
    tags = np.zeros((n, width), dtype=np.int8)
    for i, loops in enumerate(nests):
        for j, loop in enumerate(loops, start=width - len(loops)):
            extents[i, j] = loop.extent
            lows[i, j] = loop.lo
            kinds[i, j], is_red[i, j], tags[i, j] = loop_codes(loop)
    return LoopPlanes(extents, lows, kinds, is_red, tags)


def nest_signature(
    subgraph_name: str, kinds: np.ndarray, cache_write: bool, rfactored: bool, inlined: bool
) -> str:
    """Program-shape signature of one nest (the quirk key): its depth,
    loop-kind codes outermost first, and stage flags.

    Coarse on purpose (DESIGN.md §6): near-top candidates of one subgraph
    usually share it, so the quirk terms keyed on it cancel within a task
    and act across platforms instead.
    """
    codes = "".join(str(int(k)) for k in kinds)
    return (
        f"{subgraph_name}/{len(kinds)}/{codes}"
        f"/cw{int(cache_write)}rf{int(rfactored)}ci{int(inlined)}"
    )


@dataclass
class NestFeatures:
    """A batch of applied loop nests, flattened for vectorized costing.

    ``extents``/``kinds``/``is_reduction``/``tags`` are the nests'
    :class:`LoopPlanes` (``extents`` as float32).  :meth:`from_nests`
    flattens concrete nests; ``repro.analysis.absint``'s batch pass calls
    :meth:`from_planes` with planes it derived without building any nest.
    """

    n: int
    depth: np.ndarray            # int32 [N]
    extents: np.ndarray          # float32 [N, D]
    kinds: np.ndarray            # int8 [N, D]
    is_reduction: np.ndarray     # bool [N, D]
    tags: np.ndarray             # int8 [N, D]
    padded_points: np.ndarray    # float32 [N] — product of loop extents
    domain_points: np.ndarray    # float32 [N] — subgraph's true domain size
    flops_per_point: np.ndarray  # float32 [N]
    unroll_step: np.ndarray      # float32 [N] — max auto_unroll_max_step pragma
    cache_write: np.ndarray      # bool [N]
    compute_at: np.ndarray       # bool [N]
    inlined: np.ndarray          # bool [N]
    rfactored: np.ndarray        # bool [N]
    signatures: tuple[str, ...]  # program-shape signature per nest (quirk key)

    @classmethod
    def from_nests(
        cls, subgraph: Subgraph, nests: Sequence[LoopNest]
    ) -> "NestFeatures":
        n = len(nests)
        depth = np.asarray([nest.depth for nest in nests], dtype=np.int32)
        d = max(int(depth.max(initial=0)), 1)
        planes = loop_planes([nest.loops for nest in nests], d)
        unroll = np.zeros(n, dtype=np.float32)
        for i, nest in enumerate(nests):
            for loop in nest.loops:
                for name, value in loop.pragmas:
                    if name == "auto_unroll_max_step":
                        unroll[i] = max(unroll[i], float(value))
        rfactored = np.asarray([any(l.rfactored for l in nest.loops) for nest in nests], dtype=bool)
        inlined = np.asarray([nest.inlined for nest in nests], dtype=bool)
        signatures = tuple(
            nest_signature(subgraph.name, planes.kinds[i, d - nest.depth :],
                           nest.cache_write, bool(rfactored[i]), nest.inlined)
            for i, nest in enumerate(nests)
        )
        return cls.from_planes(
            subgraph,
            depth,
            planes,
            unroll,
            np.asarray([nest.cache_write for nest in nests], dtype=bool),
            np.asarray([bool(nest.compute_at_axis) for nest in nests], dtype=bool),
            inlined,
            rfactored,
            signatures,
        )

    @classmethod
    def from_planes(
        cls,
        subgraph: Subgraph,
        depth: np.ndarray,
        planes: LoopPlanes,
        unroll_step: np.ndarray,
        cache_write: np.ndarray,
        compute_at: np.ndarray,
        inlined: np.ndarray,
        rfactored: np.ndarray,
        signatures: tuple[str, ...],
    ) -> "NestFeatures":
        """The batch from its loop planes and per-nest columns."""
        n = len(depth)
        extents = planes.extents.astype(np.float32)
        return cls(
            n=n,
            depth=np.asarray(depth, dtype=np.int32),
            extents=extents,
            kinds=planes.kinds,
            is_reduction=planes.is_reduction,
            tags=planes.tags,
            padded_points=extents.prod(axis=1, dtype=np.float32),
            domain_points=np.full(n, float(subgraph.total_points), dtype=np.float32),
            flops_per_point=np.full(n, float(subgraph.flops_per_point), dtype=np.float32),
            unroll_step=unroll_step,
            cache_write=cache_write,
            compute_at=compute_at,
            inlined=inlined,
            rfactored=rfactored,
            signatures=signatures,
        )

    def suffix_products(self) -> np.ndarray:
        """``sp[:, j] = prod(extents[:, j:])`` — the loop-suffix tile sizes."""
        return np.cumprod(self.extents[:, ::-1], axis=1, dtype=np.float32)[:, ::-1]


def tile_points(suffix_products: np.ndarray, capacity_points: float) -> np.ndarray:
    """Largest loop-suffix tile (in points) fitting ``capacity_points``.

    Suffix products shrink monotonically toward the innermost loop, so
    this is the deepest tile a cache of that capacity can hold; 1.0 when
    even the innermost loop overflows it (register-only reuse).
    """
    cap = np.float32(capacity_points)
    fits = suffix_products <= cap
    best = np.where(fits, suffix_products, np.float32(1.0)).max(axis=1)
    return np.maximum(best, np.float32(1.0))


def memory_cycles(features: NestFeatures, platform: Platform) -> np.ndarray:
    """Per-nest memory cycles from the multi-level tile-reuse walk.

    For each cache level: the resident tile of ``t`` points generates
    ``bytes(t) = BYTES_PER_POINT * t**REUSE_EXPONENT`` of traffic from
    the level below per traversal, and the nest traverses
    ``padded_points / t`` tiles — so total traffic is
    ``padded_points * BYTES_PER_POINT * t**(REUSE_EXPONENT-1)`` charged
    at that link's bytes/cycle.  Bigger resident tiles (better tiling)
    mean strictly less traffic.
    """
    sp = features.suffix_products()
    total = np.zeros(features.n, dtype=np.float32)
    for size_kb, bytes_per_cycle in zip(platform.cache_kb, platform.cache_bw):
        # Invert bytes(t) <= capacity to a point capacity for the tile walk.
        capacity_points = (size_kb * 1024.0 / BYTES_PER_POINT) ** (1.0 / REUSE_EXPONENT)
        t = tile_points(sp, capacity_points)
        traffic = features.padded_points * np.float32(BYTES_PER_POINT) * t ** np.float32(
            REUSE_EXPONENT - 1.0
        )
        total += traffic / np.float32(bytes_per_cycle)
    # A write-cache stage pays off when the producer is anchored under a
    # consumer loop (CHW + CA keeps the accumulator tile resident); a
    # floating write cache just adds a copy-out pass.
    cw_at = features.cache_write & features.compute_at
    cw_floating = features.cache_write & ~features.compute_at
    total = total * np.where(cw_at, np.float32(0.85), np.float32(1.0))
    total = total * np.where(cw_floating, np.float32(1.06), np.float32(1.0))
    return total


def conflict_counts(features: NestFeatures) -> np.ndarray:
    """Per-nest count of large power-of-two *middle* loop extents.

    The W301 analogue (DESIGN.md §6): extents >= POW2_CONFLICT_THRESHOLD
    that are exact powers of two on loops that are neither the outermost
    real loop nor the innermost alias cache sets (CPU) or shared-memory
    banks (GPU).  The per-platform penalty is applied by the models.
    """
    d = features.extents.shape[1]
    cols = np.arange(d)
    outer_col = (d - features.depth)[:, None]  # first real column per nest
    middle = (cols[None, :] > outer_col) & (cols[None, :] < d - 1)
    e_int = features.extents.astype(np.int64)
    pow2 = (
        (e_int >= POW2_CONFLICT_THRESHOLD)
        & ((e_int & (e_int - 1)) == 0)
        & (e_int.astype(np.float32) == features.extents)
    )
    return (middle & pow2).sum(axis=1).astype(np.float32)


__all__ = [
    "BYTES_PER_POINT",
    "K_BOUND",
    "K_PARALLEL",
    "K_SERIAL",
    "K_UNROLLED",
    "K_VECTORIZED",
    "LoopPlanes",
    "NestFeatures",
    "POW2_CONFLICT_THRESHOLD",
    "REUSE_EXPONENT",
    "TAG_BLOCK",
    "TAG_NONE",
    "TAG_THREAD",
    "TAG_VTHREAD",
    "conflict_counts",
    "loop_codes",
    "loop_planes",
    "memory_cycles",
    "nest_signature",
    "tile_points",
]
