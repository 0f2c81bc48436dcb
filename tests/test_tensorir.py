"""repro.tensorir — subgraphs, primitives, and the schedule applier."""

from __future__ import annotations

import pytest

from repro.tensorir import (
    Axis,
    LoopKind,
    PrimitiveKind,
    Schedule,
    ScheduleError,
    Subgraph,
    divisors,
    matmul_subgraph,
    sample_subgraph_pool,
    split_parts,
)
from repro.tensorir import primitives as P


def test_eleven_primitive_kinds():
    assert len(PrimitiveKind) == 11
    assert {k.value for k in PrimitiveKind} == {
        "SP", "RE", "FU", "AN", "PR", "FSP", "CA", "CHW", "RF", "CI", "CP",
    }


def test_raw_string_kind_prints_like_its_enum_kind():
    raw = P.Primitive("SP", ("i",), (128, 4))
    assert str(raw) == str(P.split("i", 128, (4,))) == "(SP; i; 128,4)"
    assert str(P.Primitive("XX", ("i",))) == "(XX; i)"


def test_subgraph_structure():
    sg = matmul_subgraph(64, 32, 16)
    assert [a.name for a in sg.spatial_axes] == ["i", "j"]
    assert [a.name for a in sg.reduction_axes] == ["k"]
    assert sg.total_points == 64 * 32 * 16
    with pytest.raises(KeyError):
        sg.axis("nope")


def test_subgraph_rejects_bad_axes():
    with pytest.raises(ValueError):
        Axis("i", 0)
    with pytest.raises(ValueError):
        Subgraph("dup", (Axis("i", 4), Axis("i", 8)))


def test_split_parts_pads_with_ceil_division():
    assert split_parts(128, (4, 8)) == (4, 4, 8)
    assert split_parts(100, (3,)) == (34, 3)  # padded: 34 * 3 = 102 >= 100


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_divisors_memo_hands_out_fresh_lists():
    first = divisors(360)
    assert isinstance(first, list)
    first.append(7)
    first[0] = 99
    assert divisors(360) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 24, 30,
                             36, 40, 45, 60, 72, 90, 120, 180, 360]
    assert divisors(360) is not divisors(360)
    # split_names shares its memoized result, so it must stay immutable.
    assert P.split_names("i", 3) == ("i.0", "i.1", "i.2")
    assert isinstance(P.split_names("i", 3), tuple)


def test_divisors_match_brute_force():
    for n in range(1, 2049):
        expect = [d for d in range(1, n + 1) if n % d == 0]
        assert divisors(n) == expect
        assert divisors(n) == expect  # the memoized path


def test_apply_valid_schedule(valid_schedule):
    nest = valid_schedule.apply()
    assert nest.names == ["i.0@j.0", "i.1", "j.1", "k.0", "i.2", "j.2", "k.1"]
    assert nest.loop("i.0@j.0").kind is LoopKind.PARALLEL
    assert nest.loop("j.2").kind is LoopKind.VECTORIZED
    assert nest.loop("k.0").is_reduction
    assert nest.loop("i.0@j.0").pragmas == (("auto_unroll_max_step", 16),)
    # 4*4*8 = 128 per spatial axis, 4*32 = 128 reduction: no padding.
    assert nest.total_iterations() == 128 ** 3
    assert nest.padding_ratio(valid_schedule.subgraph.total_points) == 1.0


def test_apply_rejects_dead_axis(matmul):
    s = Schedule(matmul, (P.split("i", 128, (8,)), P.annotate("i", "parallel")))
    with pytest.raises(ScheduleError, match="not live"):
        s.apply()


def test_apply_rejects_incomplete_reorder(matmul):
    s = Schedule(matmul, (P.reorder(("i", "j")),))
    with pytest.raises(ScheduleError, match="permutation"):
        s.apply()


def test_apply_rejects_nonadjacent_fuse(matmul):
    s = Schedule(matmul, (P.fuse(("i", "k")),))
    with pytest.raises(ScheduleError, match="adjacent"):
        s.apply()


def test_apply_rejects_bind_on_cpu(matmul):
    s = Schedule(matmul, (P.annotate("i", "bind.blockIdx.x"),), target="cpu")
    with pytest.raises(ScheduleError, match="GPU bind"):
        s.apply()


def test_apply_rejects_rfactor_of_spatial(matmul):
    s = Schedule(matmul, (P.rfactor("i"),))
    with pytest.raises(ScheduleError, match="non-reduction"):
        s.apply()


def test_apply_rejects_primitive_after_inline():
    from repro.tensorir import elementwise_subgraph

    sg = elementwise_subgraph(64)
    s = Schedule(sg, (P.compute_inline(), P.annotate("i", "parallel")))
    with pytest.raises(ScheduleError, match="compute-inline"):
        s.apply()


def test_apply_rejects_fsp_forward_reference(matmul):
    # The ISSUE 3 repro: the applier must refuse factors from a step that
    # has not executed yet.
    s = Schedule(matmul, (P.follow_split("j", 128, 1), P.split("i", 128, (4,))))
    with pytest.raises(ScheduleError, match="strictly earlier"):
        s.apply()


def test_apply_rejects_fsp_self_reference(matmul):
    s = Schedule(matmul, (P.follow_split("j", 128, 0),))
    with pytest.raises(ScheduleError, match="strictly earlier"):
        s.apply()


def test_follow_split_mirrors_source_factors(matmul):
    s = Schedule(
        matmul,
        (
            P.split("i", 128, (4, 8)),
            P.follow_split("j", 128, 0),
        ),
    )
    nest = s.apply()
    assert nest.names == ["i.0", "i.1", "i.2", "j.0", "j.1", "j.2", "k"]
    assert [nest.loop(n).extent for n in ("j.0", "j.1", "j.2")] == [4, 4, 8]


def test_sample_pool_is_diverse():
    pool = sample_subgraph_pool()
    assert len(pool) >= 5
    assert any(sg.reduction_axes for sg in pool)
    assert any(not sg.reduction_axes for sg in pool)
