"""The one interpreter of schedule primitive sequences.

:class:`Interpreter` is the only code that gives the 11 primitive kinds
a meaning.  It runs a sequence over an abstract loop nest, without ever
building a program, and every view of a sequence is one of its runs:

* **raise mode** — :func:`profile` stops at the first invalid step with
  :class:`AbsIntError` and otherwise returns the :class:`StaticProfile`:
  loop extents, tile footprints, parallel/vector structure, GPU grid
  geometry.  ``Schedule.apply()`` is that profile concretized
  (:meth:`StaticProfile.to_nest`), and the dataset build gates on it.
* **collect mode** — ``repro.analysis.verifier`` turns every rejection
  into a :class:`~repro.analysis.diagnostics.Diagnostic` (E1xx/E2xx,
  plus the W301–W303 smells at the step that causes them) and recovers:
  an erroring primitive changes no state, except that a split carrying
  the wrong extent (E108) proceeds with the tracked one and a name
  defined twice (E203) is skipped while the rest of its primitive
  proceeds.  ``stop_on_error`` ends the run after the first primitive
  with an error.  A collect-all run with no error derives the W304–W306
  smells from its own final state.

The abstract domain is an ordered list of loops whose trip counts are
intervals ``[lo, extent]``.  ``extent`` is the padded trip count — what
the loop really runs — while ``lo`` is the minimum number of *useful*
iterations once split padding is accounted for: a padded split leaves
its first inner level with a ragged final tile, so that loop's interval
widens while every trip count stays exact.

Three more consumers of the profile:

* :func:`profile_many` — fixed-width float32 static-feature plane
  (``STATIC_FEATURE_NAMES`` columns) for screening models.
* :func:`draft_scores` — Pruner-style draft score: the static profile is
  costed on the target's *reference* ``simhw`` platform, no TLP model
  involved.  ``CandidateScorer.propose_topk(draft_keep=...)`` uses it to
  run ``TLPModel.predict`` on the top slice only.
* :func:`smell_diagnostics` — the W304–W306 facts (footprint vs last-level
  cache, under-parallelization, unroll bodies past the icache budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.analysis.diagnostics import Diagnostic, make
from repro.simhw.cache import (
    BYTES_PER_POINT,
    NestFeatures,
    POW2_CONFLICT_THRESHOLD,
    REUSE_EXPONENT,
)
from repro.simhw.platform import ALL_PLATFORMS, Platform
from repro.tensorir.loops import ANNOTATION_KINDS, Loop, LoopKind, LoopNest
from repro.tensorir.primitives import (
    ANNOTATIONS,
    ARITY,
    GPU_BIND_PREFIX,
    KIND_BY_VALUE,
    PRAGMAS,
    Primitive,
    PrimitiveKind,
    fused_name,
    split_names,
)
from repro.tensorir.schedule import PAD_ALLOWANCE, ScheduleError, split_parts
from repro.tensorir.subgraph import Subgraph

#: ``auto_unroll_max_step`` values above this trigger W302.
MAX_AUTO_UNROLL: int = 512


class AbsIntError(ScheduleError):
    """A primitive sequence is invalid: the first error diagnostic of a run.

    ``step`` is the index of the offending primitive and ``code`` the
    diagnostic code the collect mode reports for it.  A
    :class:`~repro.tensorir.schedule.ScheduleError`, so
    ``Schedule.apply()`` raises it as is.
    """

    def __init__(self, step: int, code: str, message: str):
        super().__init__(f"step {step}: {code} {message}")
        self.step = step
        self.code = code


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


class AbstractLoop(NamedTuple):
    """One loop of the abstract nest (outermost-first order).

    Immutable, so a run shares the subgraph's initial loops and replaces
    a loop when a primitive changes it.
    """

    name: str
    #: The concrete (padded) trip count, the upper end of :attr:`trip`.
    extent: int
    #: The fewest useful iterations, the lower end of :attr:`trip`.
    lo: int
    is_reduction: bool = False
    kind: LoopKind = LoopKind.SERIAL
    thread_tag: str = ""
    pragmas: tuple[tuple[str, int], ...] = ()
    rfactored: bool = False

    @property
    def trip(self) -> Interval:
        return Interval(self.lo, self.extent)


#: Columns of the :func:`profile_many` static-feature plane, in order.
STATIC_FEATURE_NAMES: tuple[str, ...] = (
    "depth",
    "log2_padded_points",
    "log2_domain_points",
    "padding_ratio",
    "useful_fraction",        # prod(trip.lo) / prod(trip.hi) — interval mass
    "flops_per_point",
    "n_steps",
    "parallel_extent",
    "parallel_depth",         # outermost parallel loop's level (depth if none)
    "vector_extent",
    "vector_at_innermost",
    "unrolled_extent",
    "unroll_step",            # max auto_unroll_max_step pragma
    "grid_blocks",
    "threads_per_block",
    "pow2_conflicts",
    "log2_outer_tile_bytes",  # working set of one outermost-loop iteration
    "log2_tile_points_l0",    # deepest suffix tile per reference cache level
    "log2_tile_points_l1",
    "log2_tile_points_l2",
    "cache_write",
    "compute_at",
    "compute_root",
    "inlined",
    "rfactored",
)


def reference_platform(target: str) -> Platform:
    """The canonical ``simhw`` platform for a target (first of its kind)."""
    for p in ALL_PLATFORMS:
        if p.target == target:
            return p
    raise ValueError(f"no simhw platform with target {target!r}")


def reference_llc_kb(target: str) -> float:
    """Smallest last-level cache among the target's platforms (W304 bar)."""
    return min(p.cache_kb[-1] for p in ALL_PLATFORMS if p.target == target)


def reference_min_cores(target: str) -> int:
    """Smallest core/SM count among the target's platforms (W305 bar)."""
    return min(p.cores for p in ALL_PLATFORMS if p.target == target)


def reference_unroll_budget(target: str) -> int:
    """Smallest icache unroll cap among the target's platforms (W306 bar)."""
    return min(p.unroll_cap for p in ALL_PLATFORMS if p.target == target)


def working_set_bytes(points: float) -> float:
    """Bytes a tile of ``points`` keeps resident — the ``simhw.cache``
    reuse model (``BYTES_PER_POINT * points ** REUSE_EXPONENT``)."""
    return BYTES_PER_POINT * float(points) ** REUSE_EXPONENT


@dataclass(frozen=True)
class StaticProfile:
    """Everything :func:`profile` derives from a sequence without applying it."""

    subgraph_name: str
    target: str
    n_steps: int
    loops: tuple[AbstractLoop, ...]
    cache_write: bool
    inlined: bool
    compute_at_axis: str
    compute_root: bool
    domain_points: int
    flops_per_point: float
    #: (step index, axis name, abstract extent) per ``parallel`` annotation.
    parallel_facts: tuple[tuple[int, str, int], ...]
    #: (step index, axis name) per ``unroll`` annotation.
    unroll_facts: tuple[tuple[int, str], ...]

    @property
    def depth(self) -> int:
        return len(self.loops)

    def extents(self) -> tuple[int, ...]:
        return tuple(l.extent for l in self.loops)

    def padded_points(self) -> int:
        return math.prod(l.extent for l in self.loops)

    def useful_points(self) -> int:
        """Lower bound on useful iterations (product of interval floors)."""
        return math.prod(l.lo for l in self.loops)

    def padding_ratio(self) -> float:
        if self.domain_points <= 0:
            return math.inf
        return self.padded_points() / self.domain_points

    def to_nest(self) -> LoopNest:
        """The concrete loop nest — what ``Schedule.apply()`` returns."""
        return LoopNest(
            subgraph_name=self.subgraph_name,
            loops=[
                Loop(
                    l.name,
                    l.extent,
                    l.is_reduction,
                    l.kind,
                    l.thread_tag,
                    l.pragmas,
                    l.rfactored,
                )
                for l in self.loops
            ],
            cache_write=self.cache_write,
            inlined=self.inlined,
            compute_at_axis=self.compute_at_axis,
            compute_root=self.compute_root,
        )

    # -- derived geometry -------------------------------------------------

    def grid_geometry(self) -> tuple[int, int]:
        """(grid blocks, threads per block) from the ``bind.*`` tags."""
        grid = threads = 1
        for l in self.loops:
            if not l.thread_tag:
                continue
            if l.thread_tag.startswith("blockIdx"):
                grid *= l.extent
            else:  # threadIdx.* and vthread both occupy the block
                threads *= l.extent
        return grid, threads

    def pow2_conflicts(self) -> int:
        """Large power-of-two *middle* loop extents (the W301/simhw smell)."""
        count = 0
        for l in self.loops[1:-1]:
            e = l.extent
            if e >= POW2_CONFLICT_THRESHOLD and (e & (e - 1)) == 0:
                count += 1
        return count

    def outer_tile_points(self) -> int:
        """Points one iteration of the outermost loop touches."""
        if not self.loops:
            return 1
        return math.prod(l.extent for l in self.loops[1:])

    def tile_points_per_level(self, cache_kb: Sequence[float]) -> tuple[float, ...]:
        """Deepest loop-suffix tile (points) fitting each cache level,
        the suffix-product walk of ``simhw.cache.tile_points``."""
        suffix: list[float] = []
        acc = 1.0
        for l in reversed(self.loops):
            acc *= l.extent
            suffix.append(acc)
        out: list[float] = []
        for kb in cache_kb:
            capacity_points = (kb * 1024.0 / BYTES_PER_POINT) ** (1.0 / REUSE_EXPONENT)
            best = 1.0
            for t in suffix:  # ascending toward the outermost suffix
                if t <= capacity_points:
                    best = t
                else:
                    break
            out.append(max(best, 1.0))
        return tuple(out)

    def unroll_step(self) -> int:
        step = 0
        for l in self.loops:
            for name, value in l.pragmas:
                if name == "auto_unroll_max_step":
                    step = max(step, int(value))
        return step

    def features(self) -> np.ndarray:
        """The fixed-width float32 feature row (``STATIC_FEATURE_NAMES``)."""
        padded = float(self.padded_points())
        parallel_extent = 1.0
        parallel_depth = float(self.depth)
        vector_extent = 1.0
        unrolled_extent = 1.0
        for level, l in enumerate(self.loops):
            if l.kind is LoopKind.PARALLEL:
                parallel_extent *= l.extent
                parallel_depth = min(parallel_depth, float(level))
            elif l.kind is LoopKind.VECTORIZED:
                vector_extent *= l.extent
            elif l.kind is LoopKind.UNROLLED:
                unrolled_extent *= l.extent
        grid, threads = self.grid_geometry()
        ref = reference_platform(self.target)
        tiles = self.tile_points_per_level(ref.cache_kb)
        tile_cols = [math.log2(tiles[i]) if i < len(tiles) else 0.0 for i in range(3)]
        row = (
            float(self.depth),
            math.log2(max(padded, 1.0)),
            math.log2(max(float(self.domain_points), 1.0)),
            self.padding_ratio(),
            self.useful_points() / max(padded, 1.0),
            self.flops_per_point,
            float(self.n_steps),
            parallel_extent,
            parallel_depth,
            vector_extent,
            1.0 if self.loops and self.loops[-1].kind is LoopKind.VECTORIZED else 0.0,
            unrolled_extent,
            float(self.unroll_step()),
            float(grid),
            float(threads),
            float(self.pow2_conflicts()),
            math.log2(max(working_set_bytes(self.outer_tile_points()), 1.0)),
            *tile_cols,
            1.0 if self.cache_write else 0.0,
            1.0 if self.compute_at_axis else 0.0,
            1.0 if self.compute_root else 0.0,
            1.0 if self.inlined else 0.0,
            1.0 if any(l.rfactored for l in self.loops) else 0.0,
        )
        return np.asarray(row, dtype=np.float32)


def _split_lows(lo: int, extent: int, parts: tuple[int, ...], padded: int) -> tuple[int, ...]:
    """Useful-iteration floors of the loops a split produces.

    Trip counts are exact (the parts themselves).  When the factors do
    not divide the extent, the last outer iteration covers only the
    remainder, so the first inner level's useful count drops — the
    remainder is attributed there and deeper levels stay exact.
    """
    if lo != extent:
        # Splitting an already widened interval: trip counts stay exact,
        # the useful floors collapse to 1 (sound but coarse).
        return (1,) * len(parts)
    if padded == extent or len(parts) < 2:
        return parts
    outer, first, *deeper = parts
    remainder = extent - (outer - 1) * math.prod(parts[1:])
    first_lo = min(first, max(1, math.ceil(remainder / math.prod(deeper))))
    return (outer, first_lo, *deeper)


class Interpreter:
    """The meaning of the 11 primitive kinds, set up for one (subgraph, target).

    Construction is the per-batch set-up (the subgraph's initial loop
    table; the W304–W306 thresholds on the first collect-all run); each
    :meth:`profile` or :meth:`diagnose` call is one run over one
    sequence.  The ``_visit_*`` handlers read and write the run state
    below; they report through :meth:`_error`, which raises in raise mode
    and records in collect mode, so one body serves both.
    """

    def __init__(self, subgraph: Subgraph, target: str = "cpu"):
        self.subgraph = subgraph
        self.target = target
        self._domain_points = subgraph.total_points
        self._initial_order = tuple(a.name for a in subgraph.axes)
        self._initial_loops = {
            a.name: AbstractLoop(a.name, a.extent, a.extent, a.is_reduction)
            for a in subgraph.axes
        }
        self._smell_bars: tuple[float, int, int] | None = None

    # -- the two modes ----------------------------------------------------

    def profile(self, primitives: tuple[Primitive, ...]) -> StaticProfile:
        """Raise mode: the run's :class:`StaticProfile`, or
        :class:`AbsIntError` at the first invalid step."""
        self._run(primitives, None, False)
        return self._freeze()

    def diagnose(
        self, primitives: tuple[Primitive, ...], stop_on_error: bool = False
    ) -> list[Diagnostic]:
        """Collect mode: every diagnostic of the run, in step order, then
        the W304–W306 smells when the run had no error and ran to the end."""
        diags: list[Diagnostic] = []
        self._run(primitives, diags, stop_on_error)
        if not stop_on_error and not self.n_errors:
            diags.extend(self.smells(self._freeze()))
        return diags

    def smells(self, prof: StaticProfile) -> list[Diagnostic]:
        """W304–W306 from a profile, against the *worst* platform of the
        target — the smallest last-level cache, core count and unroll
        cap — so a warning means "smells on at least one simulated device"."""
        if self._smell_bars is None:
            self._smell_bars = (
                reference_llc_kb(self.target),
                reference_min_cores(self.target),
                reference_unroll_budget(self.target),
            )
        llc_kb, min_parallel_extent, unroll_body_budget = self._smell_bars
        diags: list[Diagnostic] = []
        target = prof.target

        # W304: one outermost-loop iteration's working set overflows the LLC.
        if prof.loops and not prof.inlined:
            tile_bytes = working_set_bytes(prof.outer_tile_points())
            if tile_bytes > llc_kb * 1024.0:
                diags.append(
                    make(
                        "W304",
                        -1,
                        f"static outer-tile working set {tile_bytes / 1024.0:.0f} KB "
                        f"exceeds the {llc_kb:.0f} KB last-level cache of the "
                        f"smallest {target} platform",
                    )
                )

        # W305: parallel annotation on an axis too small to feed the cores.
        for step, axis, extent in prof.parallel_facts:
            if extent < min_parallel_extent:
                diags.append(
                    make(
                        "W305",
                        step,
                        f"parallel annotation on {axis!r} with abstract extent "
                        f"{extent}, below the minimum core count "
                        f"{min_parallel_extent} of the {target} platforms",
                        axis,
                    )
                )

        # W306: unroll directive whose statically-bounded body blows the icache.
        if prof.unroll_facts:
            by_name = {l.name: i for i, l in enumerate(prof.loops)}
            for step, axis in prof.unroll_facts:
                at = by_name.get(axis)
                if at is None:
                    continue  # annotated loop later fused away
                body_points = math.prod(l.extent for l in prof.loops[at:])
                body_instrs = body_points * max(prof.flops_per_point, 1.0)
                if body_instrs > unroll_body_budget:
                    diags.append(
                        make(
                            "W306",
                            step,
                            f"unroll of {axis!r} replicates a statically-bounded body of "
                            f"~{body_instrs:.0f} instructions, beyond the {target} "
                            f"icache budget {unroll_body_budget}",
                            axis,
                        )
                    )
        return diags

    # -- the run ----------------------------------------------------------

    def _run(
        self,
        primitives: tuple[Primitive, ...],
        diags: list[Diagnostic] | None,
        stop_on_error: bool,
    ) -> None:
        self.primitives = primitives
        self.diags = diags
        self.n_errors = 0
        # Live axis names, outermost first, and their loops.
        self.order = list(self._initial_order)
        self.live = dict(self._initial_loops)
        # Consumed axis name -> the step that consumed it.
        self.consumed: dict[str, int] = {}
        self.bound_tags: set[str] = set()
        self.cache_write = self.compute_root = self.rfactored = False
        self.compute_at_axis = ""
        self.inlined_at: int | None = None
        self.parallel_facts: list[tuple[int, str, int]] = []
        self.unroll_facts: list[tuple[int, str]] = []
        rules = _RULES
        for index, prim in enumerate(primitives):
            rule = rules.get(prim.kind)
            if rule is None:
                self._error("E101", index, f"unknown primitive kind {prim.kind!r}")
            elif self.inlined_at is not None:
                self._error(
                    "E206",
                    index,
                    f"{rule[0].value} after compute-inline at step {self.inlined_at}",
                )
                break
            else:
                kind, visit = rule
                if self._check_arity(kind, prim, index):
                    visit(self, prim, index)
            if stop_on_error and self.n_errors:
                break

    def _freeze(self) -> StaticProfile:
        live = self.live
        return StaticProfile(
            subgraph_name=self.subgraph.name,
            target=self.target,
            n_steps=len(self.primitives),
            loops=tuple([live[name] for name in self.order]),
            cache_write=self.cache_write,
            inlined=self.inlined_at is not None,
            compute_at_axis=self.compute_at_axis,
            compute_root=self.compute_root,
            domain_points=self._domain_points,
            flops_per_point=float(self.subgraph.flops_per_point),
            parallel_facts=tuple(self.parallel_facts),
            unroll_facts=tuple(self.unroll_facts),
        )

    # -- plumbing ---------------------------------------------------------

    def _error(self, code: str, index: int, message: str, axis: str = "") -> None:
        if self.diags is None:
            raise AbsIntError(index, code, message)
        self.n_errors += 1
        self.diags.append(make(code, index, message, axis))

    def _check_arity(self, kind: PrimitiveKind, prim: Primitive, index: int) -> bool:
        n_axes, min_ints, max_ints, needs_attr = ARITY[kind]
        ok = True
        if n_axes is not None and len(prim.axes) != n_axes:
            self._error("E101", index, f"{kind.value} expects {n_axes} axis, got {len(prim.axes)}")
            ok = False
        if len(prim.ints) < min_ints or (max_ints is not None and len(prim.ints) > max_ints):
            self._error("E101", index, f"{kind.value} has bad numeric arity {list(prim.ints)}")
            ok = False
        if needs_attr and not prim.attr:
            self._error("E101", index, f"{kind.value} requires an attr token")
            ok = False
        return ok

    def _resolve(self, axis: str, index: int) -> AbstractLoop | None:
        """The live loop named ``axis``, or ``None`` after an E201/E202."""
        loop = self.live.get(axis)
        if loop is None:
            step = self.consumed.get(axis)
            if step is None:
                self._error("E201", index, f"axis {axis!r} is not live: it was never defined", axis)
            else:
                self._error(
                    "E202", index, f"axis {axis!r} is not live: it was consumed at step {step}", axis
                )
        return loop

    def _consume(self, axis: str, index: int) -> None:
        del self.live[axis]
        self.consumed[axis] = index

    def _define(self, loop: AbstractLoop, at: int, index: int) -> None:
        name = loop.name
        if name in self.live or name in self.consumed:
            self._error("E203", index, f"axis {name!r} defined twice", name)
            return
        self.live[name] = loop
        self.order.insert(at, name)

    # -- split family -----------------------------------------------------

    def _split(self, prim: Primitive, index: int, factors: tuple[int, ...]) -> None:
        axis = prim.axes[0]
        loop = self._resolve(axis, index)
        if loop is None:
            return
        extent = loop.extent
        if prim.ints[0] != extent:
            self._error(
                "E108",
                index,
                f"split of {axis!r} carries extent {prim.ints[0]}, tracked extent is {extent}",
                axis,
            )
        parts = split_parts(extent, factors)
        padded = math.prod(parts)
        if padded > extent * (1.0 + PAD_ALLOWANCE):
            self._error(
                "E103",
                index,
                f"split of {axis!r} pads {extent} to {padded}, beyond the "
                f"{PAD_ALLOWANCE:.0%} allowance",
                axis,
            )
            return
        diags = self.diags
        if diags is not None:
            for f in factors:
                if f == 1 or f == extent:
                    diags.append(make("W303", index, f"degenerate split factor {f} on {axis!r}", axis))
            for f in factors[:-1]:
                if f >= POW2_CONFLICT_THRESHOLD and (f & (f - 1)) == 0:
                    diags.append(
                        make(
                            "W301",
                            index,
                            f"middle-loop extent {f} on {axis!r} is a large power of two "
                            "(cache-set / bank conflict smell)",
                            axis,
                        )
                    )
        at = self.order.index(axis)
        del self.order[at]
        self._consume(axis, index)
        is_reduction = loop.is_reduction
        lows = _split_lows(loop.lo, extent, parts, padded)
        for offset, name in enumerate(split_names(axis, len(parts))):
            self._define(
                AbstractLoop(name, parts[offset], lows[offset], is_reduction), at + offset, index
            )

    def _visit_sp(self, prim: Primitive, index: int) -> None:
        factors = prim.ints[1:]
        bad = [f for f in factors if not isinstance(f, int) or f < 1]
        if bad:
            axis = prim.axes[0]
            self._error("E102", index, f"split of {axis!r} has non-positive factors {bad}", axis)
            return
        self._split(prim, index, factors)

    def _visit_fsp(self, prim: Primitive, index: int) -> None:
        axis = prim.axes[0]
        src_step = prim.ints[1]
        if not 0 <= src_step < len(self.primitives):
            self._error("E107", index, f"follow-split references missing step {src_step}", axis)
            return
        if src_step >= index:
            # Ansor traces are causal: a follow-split reuses the factors
            # of a step that already ran.
            self._error(
                "E107",
                index,
                f"follow-split references step {src_step}, which is not strictly "
                f"earlier than step {index}",
                axis,
            )
            return
        src = self.primitives[src_step]
        if KIND_BY_VALUE.get(src.kind) is not PrimitiveKind.SP or len(src.ints) < 2:
            self._error(
                "E107", index, f"follow-split references step {src_step} which is not a split", axis
            )
            return
        factors = tuple(src.ints[1:])
        if any(not isinstance(f, int) or f < 1 for f in factors):
            self._error("E102", index, f"followed split has non-positive factors {factors}", axis)
            return
        self._split(prim, index, factors)

    # -- order primitives -------------------------------------------------

    def _visit_re(self, prim: Primitive, index: int) -> None:
        named = list(prim.axes)
        order = self.order
        if sorted(named) == sorted(order):
            self.order = named
            return
        # dict.fromkeys, not set(): diagnostic order must not depend on
        # string hashing (bit-reproducibility, lint rule SC105).
        for axis in dict.fromkeys(named):
            self._resolve(axis, index)
        missing = sorted(set(order) - set(named))
        extra = sorted(set(named) - set(order))
        dupes = sorted({a for a in named if named.count(a) > 1})
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"extra {extra}")
        if dupes:
            detail.append(f"duplicated {dupes}")
        self._error(
            "E104", index, f"reorder is not a permutation of the live order ({'; '.join(detail)})"
        )

    def _visit_fu(self, prim: Primitive, index: int) -> None:
        named = prim.axes
        if len(named) < 2 or len(set(named)) != len(named):
            self._error("E109", index, f"fuse needs >=2 distinct axes, got {list(named)}")
            return
        loops = [self._resolve(a, index) for a in named]
        if any(l is None for l in loops):
            return
        order = self.order
        at = order.index(named[0])
        if order[at : at + len(named)] != list(named):
            self._error("E109", index, f"fuse axes {list(named)} are not adjacent in {order}")
            return
        del order[at : at + len(named)]
        for axis in named:
            self._consume(axis, index)
        fused = AbstractLoop(
            fused_name(named),
            math.prod(l.extent for l in loops),
            math.prod(l.lo for l in loops),
            any(l.is_reduction for l in loops),
        )
        self._define(fused, at, index)

    # -- annotation primitives --------------------------------------------

    def _visit_an(self, prim: Primitive, index: int) -> None:
        axis = prim.axes[0]
        attr = prim.attr
        if attr not in ANNOTATIONS:
            self._error("E105", index, f"unknown annotation {attr!r}", axis)
            return
        is_bind = attr.startswith(GPU_BIND_PREFIX)
        if is_bind and self.target != "gpu":
            self._error("E106", index, f"GPU bind {attr!r} under target {self.target!r}", axis)
            return
        loop = self._resolve(axis, index)
        if loop is None:
            return
        if loop.kind is not LoopKind.SERIAL:
            self._error("E205", index, f"axis {axis!r} already annotated {loop.kind.value!r}", axis)
            return
        if is_bind:
            tag = attr[len(GPU_BIND_PREFIX) :]
            if tag in self.bound_tags:
                self._error("E205", index, f"thread tag {tag!r} bound twice", axis)
                return
            self.bound_tags.add(tag)
            kind = LoopKind.BOUND
        else:
            tag = ""
            kind = ANNOTATION_KINDS[attr]
            if kind is LoopKind.PARALLEL:
                self.parallel_facts.append((index, axis, loop.extent))
            elif kind is LoopKind.UNROLLED:
                self.unroll_facts.append((index, axis))
        self.live[axis] = AbstractLoop(
            axis, loop.extent, loop.lo, loop.is_reduction, kind, tag, loop.pragmas, loop.rfactored
        )

    def _visit_pr(self, prim: Primitive, index: int) -> None:
        axis = prim.axes[0]
        attr = prim.attr
        if attr not in PRAGMAS:
            self._error("E105", index, f"unknown pragma {attr!r}", axis)
            return
        loop = self._resolve(axis, index)
        if loop is None:
            return
        value = prim.ints[0]
        if self.diags is not None and attr == "auto_unroll_max_step" and value > MAX_AUTO_UNROLL:
            self.diags.append(
                make(
                    "W302",
                    index,
                    f"auto_unroll_max_step {value} exceeds cap {MAX_AUTO_UNROLL}",
                    axis,
                )
            )
        self.live[axis] = AbstractLoop(
            axis,
            loop.extent,
            loop.lo,
            loop.is_reduction,
            loop.kind,
            loop.thread_tag,
            (*loop.pragmas, (attr, value)),
            loop.rfactored,
        )

    # -- stage primitives -------------------------------------------------

    def _visit_ca(self, prim: Primitive, index: int) -> None:
        axis = prim.axes[0]
        if self._resolve(axis, index) is not None:
            self.compute_at_axis = axis

    def _visit_chw(self, prim: Primitive, index: int) -> None:
        self.cache_write = True

    def _visit_rf(self, prim: Primitive, index: int) -> None:
        axis = prim.axes[0]
        loop = self._resolve(axis, index)
        if loop is None:
            return
        if not loop.is_reduction:
            self._error("E204", index, f"rfactor of non-reduction axis {axis!r}", axis)
            return
        self.live[axis] = loop._replace(rfactored=True)
        self.rfactored = True

    def _visit_ci(self, prim: Primitive, index: int) -> None:
        conflicts = [
            name
            for name, flag in (
                ("CHW", self.cache_write),
                ("CA", bool(self.compute_at_axis)),
                ("CP", self.compute_root),
                ("RF", self.rfactored),
            )
            if flag
        ]
        if conflicts:
            self._error("E206", index, f"compute-inline conflicts with {'/'.join(conflicts)}")
            return
        self.inlined_at = index

    def _visit_cp(self, prim: Primitive, index: int) -> None:
        self.compute_root = True


#: Kind value -> (kind, handler), keyed like ``KIND_BY_VALUE``:
#: ``PrimitiveKind`` is a str enum, so one probe resolves enum members and
#: raw kind strings (``"SP"``) alike.
_RULES: dict[str, tuple] = {
    value: (kind, getattr(Interpreter, f"_visit_{value.lower()}"))
    for value, kind in KIND_BY_VALUE.items()
}


def _primitives_of(sequence: "Sequence[Primitive] | object") -> tuple[Primitive, ...]:
    return tuple(getattr(sequence, "primitives", sequence))


def profile(
    subgraph: Subgraph, sequence: "Sequence[Primitive] | object", target: str = "cpu"
) -> StaticProfile:
    """Abstractly interpret one sequence (a ``Schedule`` or primitive
    tuple), raising :class:`AbsIntError` on any invalid step."""
    return Interpreter(subgraph, target).profile(_primitives_of(sequence))


def profile_many(
    subgraph: Subgraph,
    sequences: Sequence["Sequence[Primitive] | object"],
    target: str = "cpu",
) -> np.ndarray:
    """Static-feature plane (float32 ``[N, len(STATIC_FEATURE_NAMES)]``)
    for a batch of already-valid sequences against one subgraph."""
    interp = Interpreter(subgraph, target)
    plane = np.empty((len(sequences), len(STATIC_FEATURE_NAMES)), dtype=np.float32)
    for i, seq in enumerate(sequences):
        plane[i] = interp.profile(_primitives_of(seq)).features()
    return plane


def nest_features(
    subgraph: Subgraph, profiles: Sequence[StaticProfile]
) -> NestFeatures:
    """``simhw.cache.NestFeatures`` built from static profiles alone."""
    return NestFeatures.from_nests(subgraph, [p.to_nest() for p in profiles])


def draft_scores(
    subgraph: Subgraph,
    sequences: Sequence["Sequence[Primitive] | object"],
    target: str = "cpu",
) -> np.ndarray:
    """Pruner-style static draft scores, higher = better (float32 ``[N]``).

    Costs each static profile on the target's reference platform with the
    analytical ``simhw`` model — no quirk term, no learned model — and
    normalizes to ``min_latency / latency`` like the TLP training label.
    """
    from repro.simhw import cpu_model, gpu_model  # local: keep verifier import light

    if not sequences:
        return np.empty(0, dtype=np.float32)
    interp = Interpreter(subgraph, target)
    profiles = [interp.profile(_primitives_of(seq)) for seq in sequences]
    feats = nest_features(subgraph, profiles)
    model = gpu_model if target == "gpu" else cpu_model
    seconds, _ = model.latency_seconds(feats, reference_platform(target))
    floor = np.maximum(seconds, np.float32(1e-30))
    return (floor.min() / floor).astype(np.float32)


def smell_diagnostics(
    subgraph: Subgraph, primitives: tuple[Primitive, ...], target: str = "cpu"
) -> list[Diagnostic]:
    """W304–W306 diagnostics of one sequence (empty if it is invalid);
    see :meth:`Interpreter.smells`."""
    interp = Interpreter(subgraph, target)
    try:
        prof = interp.profile(_primitives_of(primitives))
    except AbsIntError:
        return []
    return interp.smells(prof)


__all__ = [
    "AbsIntError",
    "AbstractLoop",
    "Interpreter",
    "Interval",
    "MAX_AUTO_UNROLL",
    "STATIC_FEATURE_NAMES",
    "StaticProfile",
    "draft_scores",
    "nest_features",
    "profile",
    "profile_many",
    "reference_llc_kb",
    "reference_min_cores",
    "reference_platform",
    "reference_unroll_budget",
    "smell_diagnostics",
    "working_set_bytes",
]
