"""Hypothesis properties tying the verifier to ``Schedule.apply()``.

1. Soundness of acceptance: any sampler-generated sequence the verifier
   passes clean applies without exception.
2. Sensitivity: any single-field corruption of a valid sequence is
   flagged with the corruption's designated error code.
3. FSP-reference agreement: perturbing a follow-split's src_step_index
   never opens a gap between the verifier and ``apply()`` — a clean
   verdict still applies, and any error verdict fails to apply.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from corruptions import CORRUPTIONS
from repro.analysis import has_errors, verify_sequence, verify_schedule
from repro.tensorir import (
    Axis,
    PrimitiveKind,
    Schedule,
    ScheduleError,
    SketchConfig,
    SketchGenerator,
    Subgraph,
    sample_subgraph_pool,
)
from repro.tensorir import primitives as P
from repro.utils.rng import stream

_POOL = sample_subgraph_pool()


@st.composite
def schedules(draw):
    sg = draw(st.sampled_from(_POOL))
    target = draw(st.sampled_from(["cpu", "gpu"]))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = stream(f"property.{sg.name}.{target}.{seed}")
    return SketchGenerator(SketchConfig(target=target)).generate(sg, rng)


@settings(max_examples=80, deadline=None)
@given(schedule=schedules())
def test_verified_valid_sequences_always_apply(schedule):
    diags = verify_schedule(schedule)
    assert not has_errors(diags), [str(d) for d in diags]
    nest = schedule.apply()  # must not raise
    # Padding stays within the verifier's per-split allowance compounded
    # over the (few) padded splits; a loose sanity bound.
    if not nest.inlined:
        assert nest.padding_ratio(schedule.subgraph.total_points) < 2.0


@st.composite
def fsp_perturbed_schedules(draw):
    """A sampled schedule with one FSP whose src_step_index is rewritten
    to an arbitrary value (out of range, self, forward, or backward)."""
    schedule = draw(schedules())
    prims = schedule.primitives
    fsp_at = [i for i, p in enumerate(prims) if p.kind is PrimitiveKind.FSP]
    if fsp_at:
        at = draw(st.sampled_from(fsp_at))
    else:
        # No FSP sampled: graft one onto the front so every example
        # exercises the reference rule.
        axis = schedule.subgraph.axes[0]
        prims = (P.follow_split(axis.name, axis.extent, 0), *prims)
        at = 0
    new_src = draw(st.integers(min_value=-2, max_value=len(prims) + 2))
    fsp = prims[at]
    fsp = dataclasses.replace(fsp, ints=(fsp.ints[0], new_src))
    return Schedule(schedule.subgraph, (*prims[:at], fsp, *prims[at + 1 :]), schedule.target)


@settings(max_examples=120, deadline=None)
@given(schedule=fsp_perturbed_schedules())
# Followed factors (64,) pad i from 100 to 128, past the allowance: E103.
@example(
    schedule=Schedule(
        Subgraph("pad", (Axis("i", 100), Axis("j", 128))),
        (P.split("j", 128, (64,)), P.follow_split("i", 100, 0)),
    )
)
def test_fsp_reference_perturbations_keep_verifier_applier_agreement(schedule):
    diags = verify_schedule(schedule)
    if not has_errors(diags):
        schedule.apply()  # both accept
    else:
        with pytest.raises(ScheduleError):
            schedule.apply()  # both reject


@settings(max_examples=120, deadline=None)
@given(schedule=schedules(), corruption=st.sampled_from(CORRUPTIONS))
def test_single_field_corruptions_are_flagged(schedule, corruption):
    expected_code, name, mutator = corruption
    mutated = mutator(schedule)
    if mutated is None:  # corruption not applicable to this schedule shape
        return
    diags = verify_sequence(schedule.subgraph, mutated, schedule.target)
    assert expected_code in {d.code for d in diags}, (
        f"{name}: expected {expected_code}, got {[str(d) for d in diags]}"
    )
