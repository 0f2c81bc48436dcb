"""repro.analysis.absint — the one interpreter of the primitive kinds.

The verifier, ``Schedule.apply()`` and ``absint.profile`` are views of
one run (DESIGN.md §8): on every verifier-clean sequence the profile
concretizes to what ``Schedule.apply()`` returns and the static
``NestFeatures`` are bit-identical to featurizing the applied nests; on
every verifier-rejected sequence both the profile and ``apply()`` raise.
``tests/test_semantics_digest.py`` pins the nests, trips and features
themselves.  Around that sit unit tests for the interval domain, the
static feature plane, the draft scores, and the W304–W306 smells.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corruptions import CORRUPTIONS
from repro.analysis import absint, has_errors, verify_schedule, verify_sequence
from repro.analysis.absint import AbsIntError, Interval, StaticProfile
from repro.analysis.batch import BatchProfile
from repro.simhw.platform import ALL_PLATFORMS
from repro.tensorir import (
    Primitive,
    Schedule,
    ScheduleError,
    SketchConfig,
    SketchGenerator,
    sample_subgraph_pool,
)
from repro.tensorir import primitives as P
from repro.tensorir.subgraph import elementwise_subgraph, matmul_subgraph
from repro.utils.rng import stream

_POOL = sample_subgraph_pool()


@st.composite
def schedules(draw):
    sg = draw(st.sampled_from(_POOL))
    target = draw(st.sampled_from(["cpu", "gpu"]))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = stream(f"absint.property.{sg.name}.{target}.{seed}")
    return SketchGenerator(SketchConfig(target=target)).generate(sg, rng)


# -- the interval domain -----------------------------------------------------


def test_interval_validation_and_algebra():
    assert Interval(3, 3).exact
    assert not Interval(2, 4).exact
    assert Interval(2, 3) * Interval(4, 5) == Interval(8, 15)
    with pytest.raises(ValueError):
        Interval(0, 1)
    with pytest.raises(ValueError):
        Interval(4, 2)


def test_padded_split_attributes_remainder_to_first_inner_level():
    # 10 split by (4,): outer ceil(10/4)=3, padded 12, the last outer
    # iteration covers only 2 useful points — so the inner trip interval
    # is [2, 4] and the useful floor is 3*2=6 of 12 padded points.
    sg = elementwise_subgraph(10)
    prof = absint.profile(sg, (P.split("i", 10, (4,)),))
    assert prof.extents() == (3, 4)
    assert [l.trip for l in prof.loops] == [Interval(3, 3), Interval(2, 4)]
    assert prof.padded_points() == 12 and prof.useful_points() == 6
    row = prof.features()
    assert row[absint.STATIC_FEATURE_NAMES.index("padding_ratio")] == pytest.approx(1.2)


def test_exact_split_keeps_exact_intervals():
    sg = elementwise_subgraph(64)
    prof = absint.profile(sg, (P.split("i", 64, (8, 4)),))
    assert prof.extents() == (2, 8, 4)
    assert all(l.trip.exact for l in prof.loops)
    assert prof.useful_points() == prof.padded_points() == 64


def test_absint_error_carries_step_index():
    sg = matmul_subgraph()
    with pytest.raises(AbsIntError) as err:
        absint.profile(sg, (P.split("i", 999, (8,)),))
    assert err.value.step == 0 and "step 0" in str(err.value)


# -- one rule for every view (both directions) -------------------------------


@settings(max_examples=60, deadline=None)
@given(schedule=schedules())
def test_clean_sequences_profile_and_match_the_applier(schedule):
    diags = verify_schedule(schedule)
    assert not has_errors(diags)
    prof = absint.profile(schedule.subgraph, schedule, schedule.target)
    assert isinstance(prof, StaticProfile)
    # Final nests identical — loops (name/extent/kind/tag/pragmas/
    # rfactored) and stage state, via LoopNest equality.
    assert prof.to_nest() == schedule.apply()
    row = prof.features()
    assert row.shape == (len(absint.STATIC_FEATURE_NAMES),)
    assert np.isfinite(row).all()


@settings(max_examples=60, deadline=None)
@given(schedule=schedules(), corruption=st.sampled_from(CORRUPTIONS))
def test_rejected_sequences_raise_and_warned_ones_do_not(schedule, corruption):
    _code, _name, mutator = corruption
    mutated = mutator(schedule)
    if mutated is None:
        return
    diags = verify_sequence(schedule.subgraph, mutated, schedule.target)
    applied = Schedule(schedule.subgraph, mutated, schedule.target)
    if has_errors(diags):
        with pytest.raises(AbsIntError):
            absint.profile(schedule.subgraph, mutated, schedule.target)
        with pytest.raises(ScheduleError):
            applied.apply()
    else:
        # Warning-only corruptions stay interpretable — rejection must
        # exactly track *error* diagnostics, not smells.
        absint.profile(schedule.subgraph, mutated, schedule.target)
        applied.apply()


def test_nest_features_bit_identical_to_applied_path():
    from repro.simhw.cache import NestFeatures

    sg = matmul_subgraph()
    gen = SketchGenerator(SketchConfig("cpu"))
    batch = gen.generate_many(sg, 48, stream("absint.nestfeat"))
    static = BatchProfile(sg, batch).nest_features()
    applied = NestFeatures.from_nests(sg, [s.apply() for s in batch])
    for field in ("depth", "extents", "kinds", "is_reduction", "tags",
                  "padded_points", "domain_points", "flops_per_point",
                  "unroll_step", "cache_write", "compute_at", "inlined",
                  "rfactored"):
        assert np.array_equal(getattr(static, field), getattr(applied, field)), field
    assert static.signatures == applied.signatures


# -- static feature plane and draft scores -----------------------------------


def test_profile_many_plane_shape_and_dtype():
    sg = matmul_subgraph()
    gen = SketchGenerator(SketchConfig("cpu"))
    batch = gen.generate_many(sg, 32, stream("absint.plane"))
    plane = BatchProfile(sg, batch, "cpu").static_plane()
    assert plane.shape == (32, len(absint.STATIC_FEATURE_NAMES))
    assert plane.dtype == np.float32
    assert np.isfinite(plane).all()
    depth_col = absint.STATIC_FEATURE_NAMES.index("depth")
    assert (plane[:, depth_col] >= 1).all()


def test_gpu_grid_geometry_from_bind_tags():
    sg = matmul_subgraph()
    seq = (
        P.split("i", 128, (16,)),
        P.annotate("i.0", "bind.blockIdx.x"),
        P.annotate("i.1", "bind.threadIdx.x"),
    )
    prof = absint.profile(sg, seq, "gpu")
    row = prof.features()
    names = absint.STATIC_FEATURE_NAMES
    assert row[names.index("grid_blocks")] == 8.0
    assert row[names.index("threads_per_block")] == 16.0


def test_draft_scores_are_normalized_and_deterministic():
    sg = matmul_subgraph()
    gen = SketchGenerator(SketchConfig("cpu"))
    batch = gen.generate_many(sg, 64, stream("absint.draft"))
    a = absint.draft_scores(sg, batch)
    b = absint.draft_scores(sg, batch)
    assert np.array_equal(a, b)
    assert a.dtype == np.float32 and a.shape == (64,)
    assert a.max() == np.float32(1.0)
    assert (a > 0).all() and (a <= 1.0).all()
    assert absint.draft_scores(sg, []).shape == (0,)


def test_reference_thresholds_come_from_worst_platform():
    for target in ("cpu", "gpu"):
        plats = [p for p in ALL_PLATFORMS if p.target == target]
        assert absint.reference_platform(target) is plats[0]
        assert absint.reference_llc_kb(target) == min(p.cache_kb[-1] for p in plats)
        assert absint.reference_min_cores(target) == min(p.cores for p in plats)
        assert absint.reference_unroll_budget(target) == min(p.unroll_cap for p in plats)
    with pytest.raises(ValueError):
        absint.reference_platform("tpu")


# -- W304–W306: the absint-backed verifier smells ----------------------------


def codes(diags):
    return {d.code for d in diags}


def test_w304_fires_on_oversized_outer_tile():
    # One outer iteration touches 65536*65536 points; the reuse model
    # puts that working set (~10 MB) past the 8 MB i7 LLC.
    sg = matmul_subgraph(4, 65536, 65536)
    diags = verify_sequence(sg, ())
    w304 = [d for d in diags if d.code == "W304"]
    assert len(w304) == 1 and w304[0].primitive_index == -1
    # A small matmul's outer tile fits comfortably.
    assert "W304" not in codes(verify_sequence(matmul_subgraph(), ()))


def test_w305_fires_on_thin_parallel_axis():
    sg = matmul_subgraph()
    seq = (P.split("i", 128, (64,)), P.annotate("i.0", "parallel"))
    diags = verify_sequence(sg, seq)
    w305 = [d for d in diags if d.code == "W305"]
    assert len(w305) == 1
    assert w305[0].primitive_index == 1 and w305[0].axis == "i.0"
    # A wide parallel axis is fine.
    wide = (P.split("i", 128, (8,)), P.annotate("i.0", "parallel"))
    assert "W305" not in codes(verify_sequence(sg, wide))


def test_w306_fires_on_unroll_with_huge_static_body():
    sg = matmul_subgraph()
    diags = verify_sequence(sg, (P.annotate("i", "unroll"),))
    w306 = [d for d in diags if d.code == "W306"]
    assert len(w306) == 1 and w306[0].primitive_index == 0
    # Unrolling a small *innermost* loop stays under the icache budget
    # (the body is the whole loop suffix, so the subgraph must be thin).
    thin = elementwise_subgraph(4096)
    small = (P.split("i", 4096, (8,)), P.annotate("i.1", "unroll"))
    assert "W306" not in codes(verify_sequence(thin, small))


def test_w306_skips_axes_later_fused_away():
    sg = matmul_subgraph()
    seq = (P.annotate("i", "unroll"), P.fuse(("i", "j")))
    diags = verify_sequence(sg, seq)
    assert not has_errors(diags)
    assert "W306" not in codes(diags)


def test_smells_gated_off_on_errors_and_by_config():
    sg = matmul_subgraph()
    # An erroring sequence gets no absint smells piled on top.
    bad = (P.annotate("i", "unroll"), P.split("i", 999, (8,)))
    bad_diags = verify_sequence(sg, bad)
    assert has_errors(bad_diags)
    assert not codes(bad_diags) & {"W304", "W305", "W306"}


def test_smell_diagnostics_empty_on_uninterpretable_sequence():
    sg = matmul_subgraph()
    assert absint.smell_diagnostics(sg, (P.split("i", 999, (8,)),)) == []


def test_working_set_matches_simhw_reuse_model():
    from repro.simhw.cache import BYTES_PER_POINT, REUSE_EXPONENT

    t = 12345.0
    assert absint.working_set_bytes(t) == BYTES_PER_POINT * t ** REUSE_EXPONENT
    assert math.log2(absint.working_set_bytes(1.0)) == 2.0


# -- one meaning for raw-string kinds ----------------------------------------


def test_raw_string_kinds_mean_what_enum_kinds_mean():
    sg = matmul_subgraph()
    enum_seq = (P.split("i", 128, (4,)), P.follow_split("j", 128, 0))
    raw_seq = (Primitive("SP", ("i",), (128, 4)), P.follow_split("j", 128, 0))
    assert not has_errors(verify_sequence(sg, raw_seq))
    assert verify_sequence(sg, raw_seq) == verify_sequence(sg, enum_seq)
    raw, enum = absint.profile(sg, raw_seq), absint.profile(sg, enum_seq)
    assert raw == enum
    assert np.array_equal(raw.features(), enum.features())
    nest = Schedule(sg, raw_seq).apply()
    assert nest == Schedule(sg, enum_seq).apply() == raw.to_nest()
    assert nest.names == ["i.0", "i.1", "j.0", "j.1", "k"]


def test_unknown_kind_is_e101_and_a_schedule_error():
    sg = matmul_subgraph()
    seq = (Primitive("XX", ("i",)),)
    assert [d.code for d in verify_sequence(sg, seq)] == ["E101"]
    with pytest.raises(ScheduleError, match="unknown primitive kind"):
        Schedule(sg, seq).apply()
    with pytest.raises(AbsIntError) as err:
        absint.profile(sg, seq)
    assert err.value.code == "E101" and err.value.step == 0
