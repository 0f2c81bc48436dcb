"""repro.analysis.verifier — structural, dataflow, and smell rules."""

from __future__ import annotations

import pytest

from corruptions import CORRUPTIONS
from repro.analysis import InvalidScheduleError, assert_valid, has_errors, verify_schedule
from repro.analysis.verifier import verify_sequence
from repro.tensorir import Axis, Schedule, Subgraph, matmul_subgraph
from repro.tensorir import primitives as P


def codes(diags):
    return {d.code for d in diags}


def test_valid_schedule_is_clean(valid_schedule):
    diags = verify_schedule(valid_schedule)
    assert not has_errors(diags), [str(d) for d in diags]


def test_assert_valid_passes_and_fails(valid_schedule, matmul):
    assert_valid(valid_schedule)
    bad = Schedule(matmul, (P.rfactor("i"),))
    with pytest.raises(InvalidScheduleError) as exc:
        assert_valid(bad)
    assert any(d.code == "E204" for d in exc.value.diagnostics)


@pytest.mark.parametrize(
    "expected_code,name,mutator", CORRUPTIONS, ids=[c[1] for c in CORRUPTIONS]
)
def test_each_corruption_class_is_flagged(valid_schedule, expected_code, name, mutator):
    mutated = mutator(valid_schedule)
    assert mutated is not None, f"corruption {name} should apply to the canonical schedule"
    diags = verify_sequence(valid_schedule.subgraph, mutated, valid_schedule.target)
    assert expected_code in codes(diags), (
        f"{name}: expected {expected_code}, got {[str(d) for d in diags]}"
    )


def test_distinct_corruption_class_coverage():
    # Acceptance bar: the corruption table covers >= 6 distinct error codes.
    assert len({c for c, _, _ in CORRUPTIONS}) >= 6


def test_fsp_forward_reference_is_flagged(matmul):
    # The ISSUE 3 repro: an FSP referencing a *later* SP step used to verify
    # clean and apply without error.  It must be E107 now.
    prims = (P.follow_split("j", 128, 1), P.split("i", 128, (4,)))
    diags = verify_sequence(matmul, prims)
    assert "E107" in codes(diags), [str(d) for d in diags]


def test_fsp_self_reference_is_flagged(matmul):
    diags = verify_sequence(matmul, (P.follow_split("j", 128, 0),))
    assert "E107" in codes(diags)


def test_fsp_strictly_earlier_sp_still_verifies(matmul):
    prims = (P.split("i", 128, (4,)), P.follow_split("j", 128, 0))
    assert not has_errors(verify_sequence(matmul, prims))


def test_duplicate_definition_detected():
    # A subgraph axis named like a split result collides with the split (E203).
    sg = Subgraph("weird", (Axis("i", 16), Axis("i.0", 4)))
    diags = verify_sequence(sg, (P.split("i", 16, (4,)),))
    assert "E203" in codes(diags)


def test_diagnostics_anchor_to_primitive_index(valid_schedule):
    prims = (*valid_schedule.primitives, P.annotate("ghost", "unroll"))
    diags = verify_sequence(valid_schedule.subgraph, prims)
    (diag,) = [d for d in diags if d.code == "E201"]
    assert diag.primitive_index == len(prims) - 1
    assert diag.axis == "ghost"


def test_verifier_recovers_after_error(matmul):
    # One bad step must not mask an unrelated later one.
    prims = (
        P.annotate("ghost", "unroll"),  # E201
        P.rfactor("i"),  # E204
    )
    got = codes(verify_sequence(matmul, prims))
    assert {"E201", "E204"} <= got


def test_gpu_bind_rules(matmul):
    bind = (P.annotate("i", "bind.blockIdx.x"),)
    assert "E106" in codes(verify_sequence(matmul, bind, target="cpu"))
    assert not has_errors(verify_sequence(matmul, bind, target="gpu"))
    double = (P.annotate("i", "bind.blockIdx.x"), P.annotate("j", "bind.blockIdx.x"))
    assert "E205" in codes(verify_sequence(matmul, double, target="gpu"))


def test_padding_allowance_boundary():
    sg = Subgraph("pad", (Axis("i", 100),))
    # 100 -> ceil(100/3)*3 = 102 <= 125: fine.
    assert not has_errors(verify_sequence(sg, (P.split("i", 100, (3,)),)))
    # 100 -> ceil(100/64)*64 = 128 > 125: beyond the 25% allowance.
    assert "E103" in codes(verify_sequence(sg, (P.split("i", 100, (64,)),)))


def test_w301_pow2_middle_loop_smell(matmul):
    diags = verify_sequence(matmul, (P.split("i", 128, (64, 2)),))
    assert "W301" in codes(diags)
    assert not has_errors(diags)
    # The innermost factor is exempt: pow2 vector widths are normal.
    assert "W301" not in codes(verify_sequence(matmul, (P.split("i", 128, (2, 64)),)))


def test_w302_oversized_unroll(matmul):
    diags = verify_sequence(matmul, (P.pragma("i", "auto_unroll_max_step", 4096),))
    assert "W302" in codes(diags)
    assert not has_errors(diags)


def test_w303_degenerate_factor(matmul):
    diags = verify_sequence(matmul, (P.split("i", 128, (1,)),))
    assert "W303" in codes(diags)
    assert not has_errors(diags)
