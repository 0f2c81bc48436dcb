"""The one interpreter of schedule primitive sequences.

:class:`Interpreter` is the only code that gives the 11 primitive kinds
a meaning.  It runs a sequence over an abstract loop nest, without ever
building a program, and every view of a sequence is one of its runs:

* **raise mode** — :func:`profile` stops at the first invalid step with
  :class:`AbsIntError` and otherwise returns the :class:`StaticProfile`:
  loop extents, tile footprints, parallel/vector structure, GPU grid
  geometry.  ``Schedule.apply()`` is that profile concretized
  (:meth:`StaticProfile.to_nest`).
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

**The batch pass.**  ``repro.analysis.batch.BatchProfile`` is raise mode
over a whole (subgraph, target) batch: one interpreter run per
structural key, the rest as int64 columns, replaying the dataflow each
run logs (``Interpreter.profile(..., ops)``) with the rules
``Interpreter._split`` uses (:func:`~repro.tensorir.schedule.split_parts`,
:func:`~repro.tensorir.schedule.pads_beyond_allowance` and
:func:`first_inner_floor`), and reading the static plane off
:func:`static_plane`, the one statement of its 25 formulas.  Through it:

* ``BatchProfile.static_plane`` — fixed-width float32 static-feature
  plane (``STATIC_FEATURE_NAMES`` columns) for screening models;
* :func:`draft_scores` — Pruner-style draft score: the static profile is
  costed on the target's *reference* ``simhw`` platform, no TLP model
  involved (``repro.analysis.batch.BatchProfile.draft_scores``).
  ``CandidateScorer.propose_topk(draft_keep=...)`` takes it from the
  round's own batch pass to run ``TLPModel.predict`` on the top slice
  only.

:func:`smell_diagnostics` reads one profile's W304–W306 facts (footprint
vs last-level cache, under-parallelization, unroll bodies past the
icache budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.diagnostics import Diagnostic, make
from repro.simhw.cache import (
    BYTES_PER_POINT,
    K_PARALLEL,
    K_UNROLLED,
    K_VECTORIZED,
    POW2_CONFLICT_THRESHOLD,
    REUSE_EXPONENT,
    TAG_BLOCK,
    TAG_THREAD,
    TAG_VTHREAD,
    LoopPlanes,
    loop_planes,
)
from repro.simhw.platform import ALL_PLATFORMS, Platform
from repro.tensorir.loops import ANNOTATION_KINDS, Interval, Loop, LoopKind, LoopNest
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
from repro.tensorir.schedule import (
    PAD_ALLOWANCE,
    ScheduleError,
    ceil_div,
    pads_beyond_allowance,
    split_parts,
)
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


#: Columns of the static-feature plane (:func:`static_plane`), in order.
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
    loops: tuple[Loop, ...]
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

    def to_nest(self) -> LoopNest:
        """The concrete loop nest — what ``Schedule.apply()`` returns."""
        return LoopNest(
            subgraph_name=self.subgraph_name,
            loops=self.loops,
            cache_write=self.cache_write,
            inlined=self.inlined,
            compute_at_axis=self.compute_at_axis,
            compute_root=self.compute_root,
        )

    def outer_tile_points(self) -> int:
        """Points one iteration of the outermost loop touches (W304)."""
        if not self.loops:
            return 1
        return math.prod(l.extent for l in self.loops[1:])

    def unroll_step(self) -> int:
        step = 0
        for l in self.loops:
            for name, value in l.pragmas:
                if name == "auto_unroll_max_step":
                    step = max(step, int(value))
        return step

    def features(self) -> np.ndarray:
        """The fixed-width float32 feature row (``STATIC_FEATURE_NAMES``):
        :func:`static_plane` over this profile's one-row planes."""
        planes = loop_planes([self.loops], max(self.depth, 1))
        return static_plane(
            planes,
            np.array([self.depth]),
            np.array([float(self.unroll_step())]),
            np.array([self.n_steps]),
            np.array([[self.cache_write, bool(self.compute_at_axis), self.compute_root,
                       self.inlined, any(l.rfactored for l in self.loops)]]),
            self.domain_points,
            self.flops_per_point,
            self.target,
        )[0]


def _map_distinct(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` formula) applied once per distinct value.

    numpy's float64 ``log2`` and ``power`` are not libm's on every host,
    so every transcendental of the plane goes through ``math`` — on
    Python scalars, exactly as a one-profile loop would call it.
    """
    flat = values.tolist()
    memo = {v: fn(v) for v in dict.fromkeys(flat)}
    return np.array([memo[v] for v in flat], dtype=np.float64)


def _log2_at_least_1(v: float) -> float:
    return math.log2(max(float(v), 1.0))


def _log2_tile_bytes(points: int) -> float:
    return math.log2(max(working_set_bytes(points), 1.0))


def static_plane(
    planes: LoopPlanes,
    depth: np.ndarray,
    unroll_step: np.ndarray,
    n_steps: np.ndarray,
    flags: np.ndarray,
    domain_points: int,
    flops_per_point: float,
    target: str,
) -> np.ndarray:
    """The float32 ``[N, len(STATIC_FEATURE_NAMES)]`` static-feature plane:
    the one statement of the 25 formulas.

    ``planes`` are the nests' right-aligned loop planes (pad columns are
    extent-1 serial loops, which change no formula), ``depth`` and
    ``n_steps`` int ``[N]``, ``unroll_step`` the float64 ``[N]`` largest
    ``auto_unroll_max_step`` value (``int`` of each, at least 0), and
    ``flags`` bool ``[N, 5]``: cache write, compute-at, compute-root,
    inlined, rfactored.  Trip counts are exact integers below 2**53, so
    the int64 products here, converted once, give the bits a one-profile
    float loop gives, in any order.
    """
    ext, lows, kinds, tags = planes.extents, planes.lows, planes.kinds, planes.tags
    n, width = ext.shape
    cols = np.arange(width)
    first = width - depth  # first real column of each row
    padded = ext.prod(axis=1)
    padded_f = padded.astype(np.float64)
    parallel = kinds == K_PARALLEL
    suffix = np.cumprod(ext[:, ::-1], axis=1)[:, ::-1].astype(np.float64)
    middle = (cols > first[:, None]) & (cols < width - 1)
    pow2 = middle & (ext >= POW2_CONFLICT_THRESHOLD) & ((ext & (ext - 1)) == 0)

    def product_where(mask: np.ndarray) -> np.ndarray:
        return np.where(mask, ext, 1).prod(axis=1).astype(np.float64)

    out = np.zeros((n, len(STATIC_FEATURE_NAMES)), dtype=np.float64)
    out[:, 0] = depth
    out[:, 1] = _map_distinct(_log2_at_least_1, padded)
    out[:, 2] = _log2_at_least_1(domain_points)
    out[:, 3] = padded_f / domain_points if domain_points > 0 else math.inf
    out[:, 4] = lows.prod(axis=1).astype(np.float64) / np.maximum(padded_f, 1.0)
    out[:, 5] = flops_per_point
    out[:, 6] = n_steps
    out[:, 7] = product_where(parallel)
    out[:, 8] = np.where(parallel.any(axis=1), parallel.argmax(axis=1) - first, depth)
    out[:, 9] = product_where(kinds == K_VECTORIZED)
    out[:, 10] = (kinds[:, -1] == K_VECTORIZED) & (depth > 0)
    out[:, 11] = product_where(kinds == K_UNROLLED)
    out[:, 12] = unroll_step
    out[:, 13] = product_where(tags == TAG_BLOCK)
    out[:, 14] = product_where((tags == TAG_THREAD) | (tags == TAG_VTHREAD))
    out[:, 15] = pow2.sum(axis=1)
    out[:, 16] = _map_distinct(_log2_tile_bytes, np.where(cols > first[:, None], ext, 1).prod(axis=1))
    # Deepest loop-suffix tile fitting each reference cache level (the
    # simhw.cache.tile_points walk; suffix products ascend outward).
    for level, kb in enumerate(reference_platform(target).cache_kb[:3]):
        capacity_points = (kb * 1024.0 / BYTES_PER_POINT) ** (1.0 / REUSE_EXPONENT)
        tile = np.where(suffix <= capacity_points, suffix, 1.0).max(axis=1)
        out[:, 17 + level] = _map_distinct(math.log2, np.maximum(tile, 1.0))
    out[:, 20:25] = flags
    return out.astype(np.float32)


def first_inner_floor(extent, outer, inner, deeper):
    """Useful-iteration floor of a split's first inner level.

    Trip counts are exact (the split parts themselves).  The last outer
    iteration covers only the remaining ``extent - (outer - 1) * inner``
    points (all ``inner`` of them when the factors divide the extent), so
    the remainder is attributed to the first inner level, spread over the
    ``deeper`` levels, which stay exact.  On Python ints and int64 arrays
    alike.
    """
    return ceil_div(extent - (outer - 1) * inner, deeper)


def _split_lows(lo: int, extent: int, parts: tuple[int, ...]) -> tuple[int, ...]:
    """Useful-iteration floors of the loops a split produces."""
    if lo != extent:
        # Splitting an already widened interval: trip counts stay exact,
        # the useful floors collapse to 1 (sound but coarse).
        return (1,) * len(parts)
    outer, first, *deeper = parts
    deeper_points = math.prod(deeper)
    floor = first_inner_floor(extent, outer, first * deeper_points, deeper_points)
    return (outer, floor, *deeper)


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
            a.name: Loop(a.name, a.extent, a.extent, a.is_reduction)
            for a in subgraph.axes
        }
        self._smell_bars: tuple[float, int, int] | None = None

    # -- the two modes ----------------------------------------------------

    def profile(self, primitives: tuple[Primitive, ...], ops: list | None = None) -> StaticProfile:
        """Raise mode: the run's :class:`StaticProfile`, or
        :class:`AbsIntError` at the first invalid step.

        ``ops``, if given, receives the run's integer dataflow in step
        order — ``("split", step, factor_step, axis, part_names)``,
        ``("fuse", axes, fused_name)`` and ``("pragma", step, axis, attr)``
        — which the batch pass replays over integer columns.
        """
        self._run(primitives, None, False, ops)
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
        ops: list | None = None,
    ) -> None:
        self.primitives = primitives
        self.diags = diags
        self.ops = ops
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

    def _resolve(self, axis: str, index: int) -> Loop | None:
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

    def _define(self, loop: Loop, at: int, index: int) -> None:
        name = loop.name
        if name in self.live or name in self.consumed:
            self._error("E203", index, f"axis {name!r} defined twice", name)
            return
        self.live[name] = loop
        self.order.insert(at, name)

    # -- split family -----------------------------------------------------

    def _split(self, prim: Primitive, index: int, factors: tuple[int, ...], source: int) -> None:
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
        if pads_beyond_allowance(padded, extent):
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
        lows = _split_lows(loop.lo, extent, parts)
        names = split_names(axis, len(parts))
        for offset, name in enumerate(names):
            self._define(
                Loop(name, parts[offset], lows[offset], is_reduction), at + offset, index
            )
        if self.ops is not None:
            self.ops.append(("split", index, source, axis, names))

    def _visit_sp(self, prim: Primitive, index: int) -> None:
        factors = prim.ints[1:]
        bad = [f for f in factors if not isinstance(f, int) or f < 1]
        if bad:
            axis = prim.axes[0]
            self._error("E102", index, f"split of {axis!r} has non-positive factors {bad}", axis)
            return
        self._split(prim, index, factors, index)

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
        self._split(prim, index, factors, src_step)

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
        fused = Loop(
            fused_name(named),
            math.prod(l.extent for l in loops),
            math.prod(l.lo for l in loops),
            any(l.is_reduction for l in loops),
        )
        self._define(fused, at, index)
        if self.ops is not None:
            self.ops.append(("fuse", tuple(named), fused.name))

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
        self.live[axis] = Loop(
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
        self.live[axis] = Loop(
            axis,
            loop.extent,
            loop.lo,
            loop.is_reduction,
            loop.kind,
            loop.thread_tag,
            (*loop.pragmas, (attr, value)),
            loop.rfactored,
        )
        if self.ops is not None:
            self.ops.append(("pragma", index, axis, attr))

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


def draft_scores(
    subgraph: Subgraph,
    sequences: Sequence["Sequence[Primitive] | object"],
    target: str = "cpu",
) -> np.ndarray:
    """Pruner-style static draft scores, higher = better (float32 ``[N]``).

    Costs each static profile on the target's reference platform with the
    analytical ``simhw`` model — no quirk term, no learned model — and
    normalizes to ``min_latency / latency`` like the TLP training label.
    The batch pass is the fail-closed gate: an invalid sequence raises its
    :class:`AbsIntError`.
    """
    from repro.analysis.batch import BatchProfile  # the batch pass builds on this module

    return BatchProfile(subgraph, sequences, target).draft_scores()


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
    "Interpreter",
    "Interval",
    "MAX_AUTO_UNROLL",
    "STATIC_FEATURE_NAMES",
    "StaticProfile",
    "draft_scores",
    "first_inner_floor",
    "profile",
    "reference_llc_kb",
    "reference_min_cores",
    "reference_platform",
    "reference_unroll_budget",
    "smell_diagnostics",
    "static_plane",
    "working_set_bytes",
]
