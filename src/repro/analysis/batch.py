"""The abstract interpreter's batch pass: raise mode over a whole
(subgraph, target) batch, as integer columns.

A sampled batch repeats a handful of schedule structures: for one
(subgraph, target) the sampler's coin flips fix every kind, name and
loop skeleton, and only the split factors and unroll values vary (a
256-candidate build batch holds ~9 candidates a structure).
:class:`CandidateGroups` groups a batch by that structural key;
:class:`BatchProfile` runs :class:`~repro.analysis.absint.Interpreter`
in raise mode on one sequence per key (a key seen in an earlier batch
sharing its ``plans`` reuses that run), and replays each key's integer
dataflow over int64 columns of the whole batch in one numpy pass: E102,
E108 and E103, split parts and useful-iteration floors (``split_parts``,
``pads_beyond_allowance`` and ``first_inner_floor``, the rules
``Interpreter._split`` uses), fused extents and pragma values.  Its
outputs — the static feature plane (``absint.static_plane``) and the
``simhw`` ``NestFeatures`` — come from right-aligned loop planes, with no
per-candidate ``StaticProfile`` or ``LoopNest``, and are bit-identical to
one profile per candidate (``tests/batch_reference.py``).

Construction is a fail-closed gate that raises what a per-candidate
loop raises: should a key's run raise or the columns flag a member, the
batch is re-run one candidate at a time.  The dataset build, the
``SketchGenerator.generate_many`` gate, ``CandidateScorer.propose_topk``,
``simhw.measure_many``, ``absint.profile_many`` and
``absint.draft_scores`` run through it, and
``TLPFeaturizer.transform_into`` encodes on its grouping.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import accumulate, chain
from typing import Callable, Sequence

import numpy as np

from repro.analysis.absint import (
    AbsIntError,
    Interpreter,
    StaticProfile,
    _primitives_of,
    first_inner_floor,
    reference_platform,
    static_plane,
)
from repro.simhw import cpu_model, gpu_model
from repro.simhw.cache import LoopPlanes, NestFeatures, loop_codes, nest_signature
from repro.tensorir.primitives import Primitive, structural_shape
from repro.tensorir.schedule import PAD_ALLOWANCE, ceil_div, pads_beyond_allowance
from repro.tensorir.subgraph import Subgraph

_SHAPE = operator.attrgetter("_shape")
_INTS = operator.attrgetter("ints")
_INT64 = np.iinfo(np.int64)
#: Trip counts a batch may reach: past 2**53 an int64 product no longer
#: converts to the float a one-profile loop computes.  A sampled batch
#: stays far below (the largest pool domain is 2**29 points).
_EXACT_LIMIT = 2**53
_SPLIT, _FUSE = 1, 2


class CandidateGroups:
    """A batch of primitive sequences, grouped by structural key.

    Two sequences share a key when their primitives' structural shapes
    (``repro.tensorir.primitives.structural_shape``: kind, with a raw
    kind string equal to its enum member, axes, attr, number of ints, and
    an FSP's source step with its type) agree position by position: the
    interpreter then takes the same path through both, and they differ
    only in their integer *columns* — every int of every primitive, in
    sequence order (SP extents and factors, FSP extents, PR values).  A
    ``Primitive`` caches its shape at construction, so a candidate's key
    is one attribute map; one with no cached shape (a malformed field, or
    another object with the four fields) is derived here, raising what
    that derivation raises.  Computed once per batch: the static pass
    (:class:`BatchProfile`) and ``TLPFeaturizer.transform_into`` share it.
    """

    def __init__(self, sequences: "Sequence[Sequence[Primitive] | object]"):
        self.sequences = tuple(_primitives_of(s) for s in sequences)
        index: dict[tuple, int] = {}
        group_of: list[int] = []
        #: Each group's key and first member (ascending), and its ints per member.
        self.keys: list[tuple] = []
        self.first: list[int] = []
        self.n_columns: list[int] = []
        #: Every candidate's ints, concatenated in candidate order.
        self.values: list = []
        for i, prims in enumerate(self.sequences):
            try:
                key = tuple(map(_SHAPE, prims))
            except AttributeError:  # a primitive with no cached shape
                key = tuple(map(structural_shape, prims))
            g = index.get(key)
            if g is None:
                g = index[key] = len(self.first)
                self.first.append(i)
                self.keys.append(key)
                self.n_columns.append(sum(shape[3] for shape in key))
            group_of.append(g)
            self.values.extend(chain.from_iterable(map(_INTS, prims)))
        self.group_of = np.asarray(group_of, dtype=np.intp)
        width = np.asarray(self.n_columns, dtype=np.intp)[self.group_of]
        self.offsets = np.cumsum(width) - width
        self._int_columns: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def of(cls, sequences) -> "CandidateGroups":
        return sequences if isinstance(sequences, cls) else cls(sequences)

    def __len__(self) -> int:
        return len(self.sequences)

    def int_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, irregular)``: ``values`` int64 with two sentinels
        appended (1 at ``-2``, 0 at ``-1``), and ``irregular`` marking the
        values that are not ints in int64 range (held as 1).  E102 tests
        types as ``_visit_sp`` does (``isinstance(f, int)``: ``True``
        passes, ``2.5`` and ``np.int64(4)`` do not), before numpy could
        round or accept them."""
        if self._int_columns is None:
            values = self.values + [1, 0]
            ints = None
            if set(map(type, values)) <= {int, bool}:
                try:
                    ints = np.array(values, dtype=np.int64)
                except OverflowError:  # an int past int64: the slow path marks it
                    pass
            if ints is None:
                irregular = np.array(
                    [not (isinstance(v, int) and _INT64.min <= v <= _INT64.max) for v in values],
                    dtype=bool,
                )
                ints = np.array([1 if bad else int(v) for v, bad in zip(values, irregular)],
                                dtype=np.int64)
            else:
                irregular = np.zeros(len(ints), dtype=bool)
            self._int_columns = ints, irregular
        return self._int_columns


class _GroupPlan:
    """One key's integer dataflow and final loop structure, from a
    raise-mode run of one of its sequences.

    Registers number every loop the run ever held: the subgraph's axes
    first, then each split's parts and each fused loop as defined.
    Column indices count a member's ints (:class:`CandidateGroups`).
    Held compactly, since plans are kept across batches (:func:`_plan`).
    """

    __slots__ = ("ops", "n_regs", "final", "unroll", "n_steps", "flags", "codes")

    def __init__(self, interp: Interpreter, prims: tuple[Primitive, ...],
                 prof: StaticProfile, log: list):
        starts = [0, *accumulate(len(p.ints) for p in prims)]
        reg = {name: r for r, name in enumerate(interp._initial_order)}
        wave = [0] * len(reg)  # the wave that defines each register
        ops: list[tuple] = []
        unroll: dict[str, list[int]] = {}
        for op in log:
            if op[0] == "split":
                _, step, source, axis, names = op
                w = wave[reg[axis]] + 1
                out = tuple(reg.setdefault(name, len(reg)) for name in names)
                wave += [w] * len(out)
                factors = tuple(starts[source] + 1 + t for t in range(len(names) - 1))
                ops.append((_SPLIT, w, reg[axis], starts[step], factors, out))
            elif op[0] == "fuse":
                _, axes, name = op
                ins = tuple(reg[a] for a in axes)
                w = max(wave[r] for r in ins) + 1
                wave.append(w)
                ops.append((_FUSE, w, ins, reg.setdefault(name, len(reg))))
            elif op[3] == "auto_unroll_max_step":
                unroll.setdefault(op[2], []).append(starts[op[1]])
        self.ops = tuple(ops)
        self.n_regs = len(reg)
        self.final = tuple(reg[l.name] for l in prof.loops)
        self.unroll = tuple(c for l in prof.loops for c in unroll.get(l.name, ()))
        self.n_steps = prof.n_steps
        self.flags = (prof.cache_write, bool(prof.compute_at_axis), prof.compute_root,
                      prof.inlined, any(l.rfactored for l in prof.loops))
        # The final loops' kind, reduction and tag codes (LoopPlanes rows).
        self.codes = tuple(zip(*map(loop_codes, prof.loops))) or ((), (), ())


#: Most plans a shared plan mapping holds; past it the oldest goes (~4 KB a plan).
PLANS_HELD = 1024


def _plan(interp: Interpreter, key: tuple, prims: tuple[Primitive, ...],
          plans: dict) -> _GroupPlan:
    """The key's plan, from ``plans`` or one raise-mode run of ``prims``
    (which raises its :class:`AbsIntError`).

    Plans are kept by content: a key's dataflow and its structural
    validity depend on the subgraph's axis names and reduction flags, the
    target and the key alone — the columns check every member's ints, its
    first member's included — so a key met again, in this batch or in a
    later one sharing ``plans``, is not interpreted again.
    """
    subgraph = interp.subgraph
    held = (tuple((a.name, a.is_reduction) for a in subgraph.axes), interp.target, key)
    plan = plans.get(held)
    if plan is None:
        log: list = []
        prof = interp.profile(prims, log)
        plan = plans[held] = _GroupPlan(interp, prims, prof, log)
        if len(plans) > PLANS_HELD:
            del plans[next(iter(plans))]
    return plan


def _profile_each(subgraph: Subgraph, sequences, target: str) -> None:
    """Raise mode over a batch in candidate order: raises what a loop of
    ``absint.profile`` raises."""
    interp = Interpreter(subgraph, target)
    for seq in sequences:
        interp.profile(_primitives_of(seq))


class BatchProfile:
    """The static profile of a (subgraph, target) batch, as columns.

    Groups the batch by structural key (:class:`CandidateGroups`), runs
    the :class:`Interpreter` in raise mode once per key, and replays each
    key's integer dataflow over int64 columns of the whole batch in one
    numpy pass: E102, E108 and E103, split parts and useful-iteration
    floors (the rules ``Interpreter._split`` uses), fused extents and
    pragma values.  :meth:`static_plane` and :meth:`nest_features` then
    read right-aligned loop planes; no per-candidate ``StaticProfile`` or
    ``LoopNest`` is built.

    Construction is the fail-closed gate.  If a key's first run raises,
    or the columns flag any member, ``recheck`` re-runs the batch one
    candidate at a time (default: ``absint.profile`` in candidate order),
    so the caller sees exactly the error that loop raises; should it
    raise nothing, construction raises ``RuntimeError`` rather than
    return.  ``plans``, a dict a caller passes to every batch it checks,
    keeps each key's run for later batches: ``build_dataset`` shares one
    across the featurizer-fit corpus's 16-candidate batches, most of
    whose candidates are the first of their key, and every store batch.
    """

    def __init__(self, subgraph: Subgraph, sequences, target: str = "cpu",
                 recheck: "Callable[[], object] | None" = None,
                 plans: "dict | None" = None):
        self.subgraph = subgraph
        self.target = target
        self.groups = groups = CandidateGroups.of(sequences)
        self._recheck = recheck or (lambda: _profile_each(subgraph, groups.sequences, target))
        interp = Interpreter(subgraph, target)
        known = {} if plans is None else plans
        self._plans = []
        for key, i in zip(groups.keys, groups.first):
            try:
                self._plans.append(_plan(interp, key, groups.sequences[i], known))
            except AbsIntError:
                self._reject()
        self._regs, self._lows, unresolved = self._replay(interp, self._plans)
        if unresolved.any():
            self._reject()

    @cached_property
    def _layout(self) -> tuple[LoopPlanes, np.ndarray, list[np.ndarray], tuple]:
        """``(planes, depth, each key's kind codes, unroll steps)``: the
        final loops' registers, right-aligned, read out of the replay."""
        plans, gof = self._plans, self.groups.group_of
        depth = np.asarray([len(p.final) for p in plans], dtype=np.intp)
        width = max(int(depth.max(initial=0)), 1)
        final = np.full((len(plans), width), self._regs.shape[1] - 2, dtype=np.intp)  # 1s
        for g, plan in enumerate(plans):
            final[g, width - len(plan.final):] = plan.final
        rows = np.arange(len(gof))[:, None]
        at = final[gof]
        extents = self._regs[rows, at]
        if (extents.astype(np.float64).prod(axis=1) >= _EXACT_LIMIT).any():
            raise RuntimeError("batch trip counts past 2**53: not exactly representable")
        codes = [np.zeros((len(plans), width), dtype=dtype) for dtype in (np.int8, bool, np.int8)]
        for g, plan in enumerate(plans):
            for plane, row in zip(codes, plan.codes):
                plane[g, width - len(row):] = row
        kinds, is_reduction, tags = codes
        planes = LoopPlanes(extents, self._lows[rows, at], kinds[gof], is_reduction[gof],
                            tags[gof])
        group_kinds = [kinds[g, width - d:] for g, d in enumerate(depth)]
        return planes, depth[gof], group_kinds, self._unroll_steps(plans)

    def _reject(self) -> None:
        self._recheck()
        raise RuntimeError(
            "batch static analysis flagged a candidate that the per-candidate "
            "run accepts; no row of this batch is written"
        )

    def _replay(self, interp: Interpreter, plans: list[_GroupPlan]):
        """Every key's splits and fuses over the batch, wave by wave.

        An op's wave is one past the latest wave that defined one of its
        input loops (the subgraph's axes are wave 0), so a wave reads only
        registers earlier waves wrote, and each wave runs as one set of
        array operations over every (candidate, op) pair in it: a sampled
        batch has two waves, its splits and then its fuses.
        """
        groups = self.groups
        gof, off = groups.group_of, groups.offsets
        values, irregular = groups.int_columns()
        one = len(values) - 2
        n = len(gof)
        initial = [interp._initial_loops[a].extent for a in interp._initial_order]
        n_regs = max((p.n_regs for p in plans), default=len(initial))
        ones_reg, trash = n_regs, n_regs + 1
        regs = np.ones((n, n_regs + 2), dtype=np.int64)
        regs[:, : len(initial)] = initial
        lows = regs.copy()
        flagged = np.zeros(n, dtype=bool)
        # Members of each key, contiguous: pairs(keys) lists every member of
        # each op's key against that op.
        by_key = np.argsort(gof, kind="stable")
        sizes = np.bincount(gof, minlength=len(plans))
        first = np.cumsum(sizes) - sizes

        def pairs(op_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            counts = sizes[op_keys]
            op = np.repeat(np.arange(len(op_keys)), counts)
            within = np.arange(len(op)) - np.repeat(np.cumsum(counts) - counts, counts)
            return by_key[first[op_keys[op]] + within], op

        # The ops as flat tables, padded: a missing factor reads the
        # sentinel 1 and its part goes to the trash register; a missing
        # fused input is the 1s register.
        splits = [(g, op) for g, p in enumerate(plans) for op in p.ops if op[0] == _SPLIT]
        fuses = [(g, op) for g, p in enumerate(plans) for op in p.ops if op[0] == _FUSE]
        n_fac = max((len(op[4]) for _, op in splits), default=1)
        n_fused = max((len(op[2]) for _, op in fuses), default=2)
        # One row per split: key, wave, input, carried column, factor
        # columns, part registers.
        table = np.array(
            [(g, *op[1:4], *op[4], *(-1,) * (n_fac - len(op[4])),
              *op[5], *(trash,) * (n_fac + 1 - len(op[5]))) for g, op in splits],
            dtype=np.intp,
        ).reshape(-1, 4 + 2 * n_fac + 1)
        s_key, s_wave, s_in, s_carry = table[:, :4].T
        s_fac, s_out = table[:, 4 : 4 + n_fac], table[:, 4 + n_fac :]
        # One row per fuse: key, wave, output, input registers.
        table = np.array(
            [(g, op[1], op[3], *op[2], *(ones_reg,) * (n_fused - len(op[2]))) for g, op in fuses],
            dtype=np.intp,
        ).reshape(-1, 3 + n_fused)
        f_key, f_wave, f_out = table[:, :3].T
        f_in = table[:, 3:]

        n_waves = max(s_wave.max(initial=0), f_wave.max(initial=0))
        for wave in range(1, n_waves + 1):
            ops = np.flatnonzero(s_wave == wave)
            if ops.size:
                at, op = pairs(s_key[ops])
                op = ops[op]
                extent, lo = regs[at, s_in[op]], lows[at, s_in[op]]
                cols = s_fac[op]
                where = np.where(cols >= 0, off[at, None] + cols, one)
                factors = values[where]
                non_int = irregular[where] | (factors < 1)  # E102
                factors = np.where(non_int, 1, factors)
                flag = non_int.any(axis=1)
                # The factors' running product, checked against the most
                # padding E103 allows before each multiply: past it the
                # split has already failed, and no product can wrap.
                bound = (extent * (1.0 + PAD_ALLOWANCE)).astype(np.int64)
                inner = np.ones(len(at), dtype=np.int64)
                for c in range(n_fac):
                    over = factors[:, c] > bound // inner
                    flag |= over
                    inner = np.where(over, inner, inner * factors[:, c])
                outer = ceil_div(extent, inner)
                flag |= pads_beyond_allowance(outer * inner, extent)  # E103
                carried_at = off[at] + s_carry[op]
                odd = irregular[carried_at]
                flag |= ~odd & (values[carried_at] != extent)  # E108
                for j in np.flatnonzero(odd):
                    flag[j] |= bool(groups.values[carried_at[j]] != int(extent[j]))
                deeper = np.where(flag, 1, inner // factors[:, 0])
                floor = first_inner_floor(extent, outer, inner, deeper)
                out = s_out[op]
                regs[at[:, None], out] = np.column_stack([outer, factors])
                lows[at[:, None], out] = np.where(
                    (lo == extent)[:, None],  # else a widened interval: floors of 1
                    np.column_stack([outer, floor, factors[:, 1:]]),
                    1,
                )
                flagged[at[flag]] = True
            ops = np.flatnonzero(f_wave == wave)
            if ops.size:
                at, op = pairs(f_key[ops])
                op = ops[op]
                extent, lo = regs[at[:, None], f_in[op]], lows[at[:, None], f_in[op]]
                flagged[at[extent.astype(np.float64).prod(axis=1) >= _EXACT_LIMIT]] = True
                regs[at, f_out[op]] = extent.prod(axis=1)
                lows[at, f_out[op]] = lo.prod(axis=1)
        return regs, lows, flagged

    def _unroll_steps(self, plans: list[_GroupPlan]) -> tuple[np.ndarray, np.ndarray]:
        """The largest ``auto_unroll_max_step`` of each candidate's loops:
        float64 of ``int(value)`` (the static row) and float32 of
        ``float(value)`` (``NestFeatures``), both at least 0."""
        groups = self.groups
        gof = groups.group_of
        values, irregular = groups.int_columns()
        zero = len(values) - 1
        table = np.full((len(plans), max((len(p.unroll) for p in plans), default=0)), -1,
                        dtype=np.intp)
        for g, plan in enumerate(plans):
            table[g, : len(plan.unroll)] = plan.unroll
        cols = table[gof]
        where = np.where(cols >= 0, groups.offsets[:, None] + cols, zero)
        static = values[where].max(axis=1, initial=0).astype(np.float64)
        nest = static.astype(np.float32)
        for i in np.flatnonzero(irregular[where].any(axis=1)):
            raw = [groups.values[k] for k in where[i] if k != zero]
            static[i] = float(max([0, *(int(v) for v in raw)]))
            step = np.float32(0.0)
            for v in raw:
                step = np.float32(max(step, float(v)))
            nest[i] = step
        return static, nest

    def static_plane(self) -> np.ndarray:
        """float32 ``[N, len(STATIC_FEATURE_NAMES)]`` (:func:`static_plane`)."""
        gof = self.groups.group_of
        plans = self._plans
        planes, depth, _, unroll = self._layout
        return static_plane(
            planes,
            depth,
            unroll[0],
            np.asarray([p.n_steps for p in plans], dtype=np.intp)[gof],
            np.asarray([p.flags for p in plans], dtype=bool).reshape(-1, 5)[gof],
            self.subgraph.total_points,
            float(self.subgraph.flops_per_point),
            self.target,
        )

    def draft_scores(self) -> np.ndarray:
        """``absint.draft_scores`` of the batch (float32 ``[N]``): its nest
        features priced on the target's reference platform, no quirk term,
        normalized to ``min_latency / latency``."""
        if not len(self.groups):
            return np.empty(0, dtype=np.float32)
        model = gpu_model if self.target == "gpu" else cpu_model
        seconds, _ = model.latency_seconds(self.nest_features(),
                                           reference_platform(self.target))
        floor = np.maximum(seconds, np.float32(1e-30))
        return (floor.min() / floor).astype(np.float32)

    def nest_features(self) -> NestFeatures:
        """The batch's ``simhw`` :class:`NestFeatures`, bit-identical to
        ``NestFeatures.from_nests`` over the concrete nests."""
        gof = self.groups.group_of
        planes, depth, group_kinds, unroll = self._layout
        flags = np.asarray([p.flags for p in self._plans], dtype=bool).reshape(-1, 5)
        signatures = [
            nest_signature(self.subgraph.name, kinds, f[0], f[4], f[3])
            for kinds, f in zip(group_kinds, flags)
        ]
        return NestFeatures.from_planes(
            self.subgraph,
            depth,
            planes,
            unroll[1],
            flags[gof, 0],
            flags[gof, 1],
            flags[gof, 3],
            flags[gof, 4],
            tuple(signatures[g] for g in gof.tolist()),
        )


__all__ = ["BatchProfile", "CandidateGroups"]
