"""Batch verification (`verify_many`) agrees with the per-sequence path.

The batch mode is a pure hot-path optimization: one interpreter set-up
per batch, optional early exit.  These tests pin that it is
*observationally identical* to a Python loop of ``verify_sequence``
calls — on clean sampler output and on corrupted sequences — and that
``generate_many`` (which feeds it) equals ``n`` single ``generate``
calls on the same rng stream.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from corruptions import CORRUPTIONS
from repro.analysis import (
    InvalidScheduleError,
    assert_valid_many,
    has_errors,
    verify_many,
    verify_sequence,
)
from repro.tensorir import Schedule, SketchConfig, SketchGenerator, sample_subgraph_pool
from repro.utils.rng import stream

_POOL = sample_subgraph_pool()
_GEN = SketchGenerator(SketchConfig("cpu"))


def _schedules(sg, n, tag):
    return _GEN.generate_many(sg, n, stream(f"test.verify_many.{sg.name}.{tag}"))


@settings(max_examples=25, deadline=None)
@given(sg=st.sampled_from(_POOL), seed=st.integers(min_value=0, max_value=2**16))
def test_verify_many_equals_loop_on_valid(sg, seed):
    sequences = [s.primitives for s in _schedules(sg, 4, seed)]
    batch = verify_many(sg, sequences)
    loop = [verify_sequence(sg, seq) for seq in sequences]
    assert batch == loop
    assert all(not has_errors(diags) for diags in batch)


@settings(max_examples=60, deadline=None)
@given(
    sg=st.sampled_from(_POOL),
    seed=st.integers(min_value=0, max_value=2**16),
    corruption=st.sampled_from(CORRUPTIONS),
)
def test_verify_many_equals_loop_on_corrupted(sg, seed, corruption):
    expected_code, name, mutator = corruption
    schedule = _schedules(sg, 1, f"corrupt.{seed}")[0]
    mutated = mutator(schedule)
    if mutated is None:  # corruption not applicable to this schedule shape
        return
    sequences = [schedule.primitives, mutated]
    batch = verify_many(sg, sequences, schedule.target)
    loop = [verify_sequence(sg, seq, schedule.target) for seq in sequences]
    assert batch == loop, name
    assert expected_code in {d.code for d in batch[1]}, name


@settings(max_examples=40, deadline=None)
@given(
    sg=st.sampled_from(_POOL),
    seed=st.integers(min_value=0, max_value=2**16),
    corruption=st.sampled_from(CORRUPTIONS),
)
def test_stop_on_error_yields_prefix(sg, seed, corruption):
    _, name, mutator = corruption
    schedule = _schedules(sg, 1, f"prefix.{seed}")[0]
    mutated = mutator(schedule)
    if mutated is None:
        return
    [full] = verify_many(sg, [mutated], schedule.target)
    [stopped] = verify_many(sg, [mutated], schedule.target, stop_on_error=True)
    assert stopped == full[: len(stopped)], name
    if has_errors(full):
        assert has_errors(stopped), name


@settings(max_examples=15, deadline=None)
@given(sg=st.sampled_from(_POOL), seed=st.integers(min_value=0, max_value=2**16))
def test_generate_many_equals_repeated_generate(sg, seed):
    """One batch call consumes the rng stream exactly like n single calls."""
    batch = _GEN.generate_many(sg, 3, stream(f"test.genmany.{sg.name}.{seed}"))
    rng = stream(f"test.genmany.{sg.name}.{seed}")
    singles = [_GEN.generate(sg, rng) for _ in range(3)]
    assert [s.primitives for s in batch] == [s.primitives for s in singles]
    assert [s.target for s in batch] == [s.target for s in singles]


def test_assert_valid_many_raises_on_corruption():
    sg = _POOL[0]
    schedule = _schedules(sg, 1, "assert")[0]
    corrupted = None
    for _, _, mutator in CORRUPTIONS:
        corrupted = mutator(schedule)
        if corrupted is not None:
            break
    assert corrupted is not None
    bad = Schedule(schedule.subgraph, corrupted, schedule.target)
    with pytest.raises(InvalidScheduleError):
        assert_valid_many([schedule, bad])


def test_assert_valid_many_accepts_valid_batch():
    sg = _POOL[0]
    schedules = _schedules(sg, 6, "accept")
    all_diags = assert_valid_many(schedules)
    assert len(all_diags) == len(schedules)
    assert all(not has_errors(diags) for diags in all_diags)
