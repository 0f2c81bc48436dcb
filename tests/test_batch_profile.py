"""The batch pass against the per-candidate composition it replaced.

``repro.analysis.batch.BatchProfile`` interprets one sequence per structural key and
the rest as integer columns; ``TLPFeaturizer.transform_into`` writes each
key's rows once.  Here every byte of both is held to the one-profile-
per-candidate oracle (``batch_reference``) over sampled batches of all
five pools on cpu and gpu, mixed with hand-built shapes the sampler never
emits (splits of split parts and of fused loops, widened intervals,
raw-string kinds, padded splits, pragmas dropped by a later split or
fuse), and every corruption class and adversarial int must make the
batch pass and the ``generate_many`` gate raise exactly what the
per-candidate run raises.
"""

from __future__ import annotations

import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batch_reference import (
    assert_same_nest_features,
    first_failure,
    reference_groups,
    reference_profiles,
)
from corruptions import CORRUPTIONS
from repro.analysis import absint, assert_valid_many
from repro.analysis import batch as batch_module
from repro.analysis.absint import Interpreter
from repro.analysis.batch import BatchProfile, CandidateGroups
from repro.analysis.diagnostics import InvalidScheduleError
from repro.core.extractor import TLPFeaturizer
from repro.tensorir import Primitive, Schedule, SketchConfig, SketchGenerator
from repro.tensorir import primitives as P
from repro.tensorir.networks import NETWORK_POOLS
from repro.tensorir.sampler import ScheduleSampler
from repro.tensorir.schedule import ceil_div
from repro.tensorir.subgraph import Axis, Subgraph, elementwise_subgraph, matmul_subgraph
from repro.utils.rng import stream

_UNROLL = "auto_unroll_max_step"


def _hand_built(sg, f: int, g: int, h: int, value: int) -> list[tuple[Primitive, ...]]:
    """Shapes the sampler never emits, over the subgraph's first two axes."""
    a = sg.axes[0]
    e = a.extent
    part = f"{a.name}.1"
    seqs = [
        # A split of a split part (padded whenever f does not divide e).
        (P.split(a.name, e, (f,)), P.split(part, f, (g,))),
        # A split of the first inner level of a padded split: its useful
        # floor is below its extent, so its own parts' floors widen to 1.
        (P.split(a.name, e, (f, g)), P.split(part, f, (h,))),
        # Raw-string kinds: a split, then a pragma on its outer part.
        (Primitive("SP", (a.name,), (e, f)),
         Primitive("PR", (f"{a.name}.0",), (value,), _UNROLL)),
        # A pragma dropped when its loop is split.
        (P.pragma(a.name, _UNROLL, value), P.split(a.name, e, (f,)),
         P.pragma(f"{a.name}.0", _UNROLL, value + 1)),
    ]
    if len(sg.axes) > 1:
        b = sg.axes[1]
        fused = f"{a.name}@{b.name}"
        seqs += [
            # A split of a fused loop, then a pragma on its outer part.
            (P.fuse((a.name, b.name)), P.split(fused, e * b.extent, (g, h)),
             P.pragma(f"{fused}.0", _UNROLL, value)),
            # A pragma dropped when its loop is fused; another kept.
            (P.pragma(b.name, _UNROLL, value), P.fuse((a.name, b.name)),
             P.pragma(fused, "unroll_explicit", 1), P.annotate(fused, "unroll")),
            # FSP reusing a raw-string split's factors on another axis
            # (its E108 and E103 checked per member).
            (Primitive("SP", (a.name,), (e, f)), P.follow_split(b.name, b.extent, 0)),
        ]
    return seqs


def _valid(sg, seq, target) -> bool:
    return first_failure(sg, [seq], target) is None


def _assert_batch_matches_oracle(sg, seqs, target, featurizer, plans=None) -> None:
    static_ref, nest_ref = reference_profiles(sg, seqs, target)
    batch = BatchProfile(sg, seqs, target, plans=plans)
    static = batch.static_plane()
    assert static.dtype == np.float32 and static.tobytes() == static_ref.tobytes()
    assert_same_nest_features(batch.nest_features(), nest_ref)
    X_ref, mask_ref = featurizer.transform(seqs)
    cfg = featurizer.config
    X = np.full((len(seqs) + 2, cfg.seq_len, cfg.emb), np.nan, dtype=np.float32)
    mask = np.full((len(seqs) + 2, cfg.seq_len), np.nan, dtype=np.float32)
    featurizer.transform_into(batch.groups, X, mask)
    assert X[: len(seqs)].tobytes() == X_ref.tobytes()
    assert mask[: len(seqs)].tobytes() == mask_ref.tobytes()


_POOL_TARGETS = [(pool, target) for pool in NETWORK_POOLS for target in ("cpu", "gpu")]


@pytest.mark.parametrize("pool,target", _POOL_TARGETS, ids=[f"{p}-{t}" for p, t in _POOL_TARGETS])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_batch_pass_bit_identical_to_per_candidate_composition(pool, target, data):
    subgraphs = NETWORK_POOLS[pool].subgraphs
    sg = subgraphs[data.draw(st.integers(0, len(subgraphs) - 1), label="subgraph")]
    n = data.draw(st.integers(1, 40), label="n")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    sampled = SketchGenerator(SketchConfig(target)).generate_many(
        sg, n, stream(f"test.batch_profile.{pool}.{target}.{seed}"), verify=False)
    seqs = [s.primitives for s in sampled]
    e = sg.axes[0].extent
    factor = st.integers(1, max(2, e + e // 4))
    for _ in range(data.draw(st.integers(0, 3), label="hand-built rounds")):
        f, g, h = (data.draw(factor) for _ in range(3))
        value = data.draw(st.sampled_from((0, 16, 64, 512, 1000)))
        seqs += [s for s in _hand_built(sg, f, g, h, value) if _valid(sg, s, target)]
    seqs = data.draw(st.permutations(seqs), label="order")
    featurizer = TLPFeaturizer().fit(sampled)
    _assert_batch_matches_oracle(sg, seqs, target, featurizer)


def test_batch_pass_covers_every_hand_built_shape():
    """The hand-built shapes are valid at divisible and padded factors
    alike, so the parity test above really exercises them."""
    sg = matmul_subgraph(100, 96, 64)
    for f, g, h in ((25, 2, 3), (30, 4, 7), (20, 5, 3)):
        seqs = _hand_built(sg, f, g, h, 64)
        assert all(_valid(sg, s, "cpu") for s in seqs), (f, g, h)
        _assert_batch_matches_oracle(sg, seqs * 2, "cpu", TLPFeaturizer().fit(seqs[:2]))


# -- the structural key: each primitive's cached shape ------------------------


class _Fields(typing.NamedTuple):
    """Not a ``Primitive``: the four fields and no cached shape."""

    kind: object
    axes: tuple
    ints: tuple
    attr: str


def _partition_cases(sg, target) -> list[tuple]:
    """A sampled batch, its corruptions, raw-string kinds, fields-only
    primitives, non-int ints and FSP sources that point the same way
    through another type."""
    base = [s.primitives for s in SketchGenerator(SketchConfig(target)).generate_many(
        sg, 12, stream(f"test.batch_profile.partition.{sg.name}.{target}"), verify=False)]
    seqs = list(base)
    for _code, _name, mutator in CORRUPTIONS:
        seqs += [m for m in (mutator(Schedule(sg, base[k], target)) for k in (0, 3))
                 if m is not None]
    for seq in base[:3]:
        seqs.append(tuple(Primitive(p.kind.value, p.axes, p.ints, p.attr) for p in seq))
        seqs.append(tuple(_Fields(p.kind, p.axes, p.ints, p.attr) for p in seq))
        for i, p in enumerate(seq):
            if p.kind is P.PrimitiveKind.SP:
                seqs += [(*seq[:i], Primitive(p.kind, p.axes, (p.ints[0], v, *p.ints[2:])),
                          *seq[i + 1:]) for v in (2.5, np.int64(4), True, 2**70)]
                seqs.append((*seq[:i], Primitive(p.kind, p.axes, (*p.ints, 1)), *seq[i + 1:]))
    a, b = sg.axes[0], sg.axes[-1]
    for source in (0, 1, False, True, 0.0, np.int64(0), "0"):
        for kind in (P.PrimitiveKind.FSP, "FSP"):
            seqs.append((P.split(a.name, a.extent, (2,)), P.split(b.name, b.extent, (4,)),
                         Primitive(kind, (b.name,), (b.extent, source))))
    seqs.append((P.split(a.name, a.extent, (2,)), Primitive("FSP", (b.name,), (b.extent,))))
    return seqs


@pytest.mark.parametrize("pool,target", _POOL_TARGETS, ids=[f"{p}-{t}" for p, t in _POOL_TARGETS])
def test_shape_keys_partition_every_batch_as_the_zipped_key_did(pool, target):
    for sg in NETWORK_POOLS[pool].subgraphs:
        seqs = _partition_cases(sg, target)
        for order in (seqs, seqs[::-1]):
            groups = CandidateGroups(order)
            assert groups.group_of.tolist() == reference_groups(order)
            assert groups.n_columns == [sum(map(len, (p.ints for p in order[i])))
                                        for i in groups.first]


def test_a_primitive_with_unreadable_fields_constructs_and_keys_as_before():
    """A field the shape cannot be read from leaves no cached shape, never
    a constructor error; the batch then derives the shape again, raising
    what the zipped key raised, so no two such primitives share a group."""
    malformed = [Primitive(P.PrimitiveKind.SP, ("i",), 5),
                 Primitive(P.PrimitiveKind.FSP, ("i",), {1, 2}),
                 Primitive(["SP"], ("i",), (128, 4))]
    for prim in malformed:
        assert "_shape" not in vars(prim)
        for seqs in ([(prim,)], [(P.split("i", 128, (4,)),), (prim,)]):
            with pytest.raises(TypeError) as want:
                reference_groups(seqs)
            with pytest.raises(TypeError) as got:
                CandidateGroups(seqs)
            assert type(got.value) is type(want.value)
    assert vars(P.split("i", 128, (4,)))["_shape"] == ("SP", ("i",), "", 2, None)


# -- errors: the same error where the per-candidate run raises one -------------

# (where, value): an SP's carried extent ("extent"; "float" and "int64"
# carry the right extent as 64.0 or np.int64(64) would), its first factor
# ("factor"; "pad" pads past the allowance with no factor past it) or
# both factors ("factors"), or a PR's value ("pragma").
_ADVERSARIAL = [
    ("factor", 0), ("factor", -1), ("factor", True), ("factor", 2.5), ("factor", "pad"),
    ("factor", np.int64(4)), ("factor", 2**40), ("factors", 2**40), ("factor", 2**70),
    ("extent", "float"), ("extent", "int64"), ("extent", True), ("extent", "64"),
    ("extent", 2**70), ("pragma", 2.5), ("pragma", np.int64(16)), ("pragma", True),
    ("pragma", 2**70), ("pragma", -3),
]


def _adversarial(sg, where, value) -> tuple[tuple[Primitive, ...], tuple[Primitive, ...]]:
    """``(clean, adversarial)``: two sequences of one structural key, the
    clean one valid on any subgraph, so that placed first it leaves the
    adversarial one to the integer columns."""
    a = sg.axes[0]
    extent = a.extent
    if where == "pragma":
        return tuple((P.split(a.name, extent, (1,)), P.pragma(f"{a.name}.0", _UNROLL, v))
                     for v in (0, value))
    if where == "extent":
        carried = {"float": float(extent), "int64": np.int64(extent)}.get(value, value)
        clean, ints = (extent, 1), (carried, 1)
    else:
        clean = (extent, 1, 1)
        value = -(-7 * extent // 10) if value == "pad" else value
        ints = (extent, value, 1) if where == "factor" else (extent, value, value)
    return tuple((Primitive(P.PrimitiveKind.SP, (a.name,), i),) for i in (clean, ints))


def _batch_outcome(sg, seqs, target, plans=None):
    """``(index, error)`` the batch pass raises, through a recheck that
    names the candidate as the dataset build's does; None if it passes."""
    found = []

    def recheck():
        found.append(first_failure(sg, seqs, target))
        if found[0] is not None:
            raise found[0][1]

    try:
        BatchProfile(sg, seqs, target, recheck, plans)
    except Exception as err:  # the outcome is whatever the pass raises
        return (found[0][0] if found and found[0] else None), err
    return None


def _same_error(got, want) -> None:
    assert (got is None) == (want is None), (got, want)
    if want is None:
        return
    (i, err), (j, ref) = got, want
    assert i == j and type(err) is type(ref) and str(err) == str(ref)
    assert getattr(err, "step", None) == getattr(ref, "step", None)
    assert getattr(err, "code", None) == getattr(ref, "code", None)


def _gate_outcome(monkeypatch, sg, target, batch):
    """What ``generate_many(verify=True)`` raises when the sampler
    returns ``batch``, against ``assert_valid_many`` on it."""
    queue = iter(batch)
    monkeypatch.setattr(ScheduleSampler, "sample", lambda self, subgraph, rng: next(queue))
    got = want = None
    try:
        SketchGenerator(SketchConfig(target)).generate_many(sg, len(batch), stream("unused"))
    except Exception as err:  # the outcome is whatever the gate raises
        got = err
    try:
        assert_valid_many(batch)
    except InvalidScheduleError as err:
        want = err
    assert (got is None) == (want is None), (got, want)
    if want is not None:
        assert type(got) is InvalidScheduleError
        assert str(got) == str(want) and got.diagnostics == want.diagnostics


@pytest.mark.parametrize("target", ("cpu", "gpu"))
def test_batch_pass_and_gate_raise_exactly_where_the_per_candidate_run_raises(
    monkeypatch, target
):
    generator = SketchGenerator(SketchConfig(target))
    for pool in NETWORK_POOLS.values():
        sg = pool.subgraphs[0]
        base = generator.generate_many(sg, 6, stream(f"test.batch_profile.err.{target}"))
        # A corrupted or adversarial candidate alone, first of its key
        # (the key's interpreter run), and after a clean one of its key
        # (the columns): an int-only corruption keeps the key.
        cases = []
        for _code, _name, mutator in CORRUPTIONS:
            for k in (0, 3):
                mutated = mutator(base[k])
                if mutated is not None:
                    cases.append((k, base[k].primitives, mutated))
        cases += [(2, *_adversarial(sg, where, value)) for where, value in _ADVERSARIAL]
        for k, clean, bad in cases:
            for before in ((), (clean,)):
                seqs = [*before, *(s.primitives for s in base)]
                seqs[len(before) + k] = bad
                seqs.append(bad)  # and once more, later
                _same_error(_batch_outcome(sg, seqs, target), first_failure(sg, seqs, target))
            schedules = [Schedule(sg, s, target) for s in seqs]
            _gate_outcome(monkeypatch, sg, target, schedules)
            monkeypatch.undo()


def test_valid_adversarial_ints_keep_every_byte():
    """Ints the interpreter accepts but numpy would read differently —
    ``True``, ``64.0`` and ``np.int64`` extents, float, huge and negative
    pragma values — go through the batch pass bit-identically."""
    sg = elementwise_subgraph(64)
    pairs = [_adversarial(sg, where, value) for where, value in _ADVERSARIAL]
    seqs = [s for pair in pairs for s in pair if _valid(sg, s, "cpu")]
    assert len(seqs) >= 2 * 8
    _assert_batch_matches_oracle(sg, seqs, "cpu", TLPFeaturizer().fit(seqs[:1]))


def test_a_key_seen_in_an_earlier_batch_is_not_interpreted_again(monkeypatch):
    """Plans shared across batches are kept by content (axis names,
    reduction flags, target, key), so a second subgraph with the same
    axes but other extents runs no interpreter, and its columns still
    give every byte and every error: its first member here pads past the
    allowance only on it."""
    runs = []
    profile = Interpreter.profile

    def counting(self, primitives, ops=None):
        runs.append(ops is not None)
        return profile(self, primitives, ops)

    monkeypatch.setattr(Interpreter, "profile", counting)
    plans: dict = {}

    def shapes(sg, factors):
        i, j = (a.extent for a in sg.axes[:2])
        return [(P.split("i", i, (f,)), P.split("j", j, (g,)),
                 P.reorder(("i.0", "j.0", "i.1", "j.1", "k")), P.fuse(("i.0", "j.0")),
                 P.annotate("i.0@j.0", "parallel"), P.pragma("i.0@j.0", _UNROLL, 16))
                for f, g in factors]

    big, small = matmul_subgraph(128, 96, 64), matmul_subgraph(20, 24, 64)
    featurizer = TLPFeaturizer().fit(shapes(big, [(32, 8)]))
    _assert_batch_matches_oracle(big, shapes(big, [(32, 8), (4, 6), (16, 3)]), "cpu",
                                 featurizer, plans)
    assert sum(runs) == 1 and len(plans) == 1
    runs.clear()
    _assert_batch_matches_oracle(small, shapes(small, [(4, 6), (5, 8), (20, 3)]), "cpu",
                                 featurizer, plans)
    assert sum(runs) == 0
    seqs = shapes(small, [(32, 8), (4, 6)])
    _same_error(_batch_outcome(small, seqs, "cpu", plans), first_failure(small, seqs, "cpu"))
    assert first_failure(small, seqs, "cpu")[1].code == "E103"
    assert sum(runs) == 0
    # The target and the axes' reduction flags are part of a plan's key.
    binds = [(P.split("i", 128, (f,)), P.annotate("i.0", "bind.blockIdx.x")) for f in (16, 32)]
    BatchProfile(big, binds, "gpu", plans=plans)
    assert first_failure(big, binds, "cpu")[1].code == "E106"
    _same_error(_batch_outcome(big, binds, "cpu", plans), first_failure(big, binds, "cpu"))
    spatial = Subgraph("spatial_k", (Axis("i", 128), Axis("j", 96), Axis("k", 64)))
    rfactors = [(P.split("k", 64, (f,)), P.rfactor("k.0")) for f in (8, 16)]
    BatchProfile(big, rfactors, "cpu", plans=plans)
    assert first_failure(spatial, rfactors, "cpu")[1].code == "E204"
    _same_error(_batch_outcome(spatial, rfactors, "cpu", plans),
                first_failure(spatial, rfactors, "cpu"))
    # A bounded mapping: past PLANS_HELD the oldest plan goes.
    monkeypatch.setattr(batch_module, "PLANS_HELD", 2)
    three = shapes(big, [(4, 6)]) + rfactors[:1] + [(P.split("i", 128, (4,)),)]
    held: dict = {}
    _assert_batch_matches_oracle(big, three, "cpu", featurizer, held)
    assert len(held) == 2


def test_profile_many_raises_the_first_invalid_candidates_error():
    sg = matmul_subgraph()
    seqs = [s.primitives for s in SketchGenerator(SketchConfig("cpu")).generate_many(
        sg, 8, stream("test.batch_profile.first"))]
    seqs[5] = (P.split("i", 999, (8,)),)
    seqs[6] = (P.split("i", 128, (0,)),)
    with pytest.raises(absint.AbsIntError) as err:
        absint.profile_many(sg, seqs)
    assert (err.value.step, err.value.code) == (0, "E108")


def test_a_recheck_that_raises_nothing_is_an_internal_error():
    sg = matmul_subgraph()
    with pytest.raises(RuntimeError, match="no row of this batch"):
        BatchProfile(sg, [(P.split("i", 128, (0,)),)], "cpu", lambda: None)


def test_ceil_div_is_math_ceil_for_these_operand_sizes():
    """The split rules' integer ceil-division equals the float
    ``math.ceil(a / b)`` it replaced for every dividend below 2**53."""
    rng = stream("test.batch_profile.ceil_div")
    for bits in (4, 16, 30, 45, 52):
        a = rng.integers(1, 2**bits, size=2000)
        b = rng.integers(1, 2**bits, size=2000)
        for x, y in zip(a.tolist(), b.tolist()):
            assert ceil_div(x, y) == math.ceil(x / y)
        np.testing.assert_array_equal(ceil_div(a, b), [math.ceil(x / y) for x, y in
                                                       zip(a.tolist(), b.tolist())])
    assert ceil_div(2**53 - 1, 2) == math.ceil((2**53 - 1) / 2)
