"""repro.utils.rng — named, hash-derived streams, and their bulk replay."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.utils.rng import Replay, seed_for, stream


def test_seed_is_deterministic_and_name_dependent():
    assert seed_for("dataset.cpu") == seed_for("dataset.cpu")
    assert seed_for("dataset.cpu") != seed_for("dataset.gpu")
    assert seed_for("dataset.cpu", root_seed=1) != seed_for("dataset.cpu", root_seed=0)


def test_streams_reproduce_bit_for_bit():
    a = stream("sampler.test").integers(0, 1 << 30, size=16)
    b = stream("sampler.test").integers(0, 1 << 30, size=16)
    assert (a == b).all()


def test_streams_are_independent():
    a = stream("stream.a").integers(0, 1 << 30, size=16)
    b = stream("stream.b").integers(0, 1 << 30, size=16)
    assert (a != b).any()


# -- Replay: numpy's draws from bulk PCG64 words -----------------------------

#: Ranges numpy draws with 32-bit Lemire over half-words: a one-value
#: range (no draw), small ones, one whose rejection zone is almost half of
#: 2**32 (2**31 + 1), and the full 32-bit range (no rejection at all).
_RANGES = (1, 2, 3, 7, 64, 2**31 + 1, 2**32)

_draws = st.lists(
    st.one_of(st.just(None), st.tuples(st.sampled_from((0, 5)), st.sampled_from(_RANGES))),
    max_size=120,
)


def _draw(rng, op):
    """``random()`` for ``None``, else ``integers(low, low + n)``."""
    return rng.random() if op is None else int(rng.integers(op[0], op[0] + op[1]))


def _twins(seed: int, buffered: bool):
    """Two Generators in one state, with or without a buffered half-word
    (an odd number of 32-bit draws leaves one)."""
    a, b = stream("test.replay", seed), stream("test.replay", seed)
    for rng in (a, b):
        rng.integers(0, 3, size=3 if buffered else 2, dtype=np.uint32)
    assert a.bit_generator.state["has_uint32"] == int(buffered)
    return a, b


@settings(max_examples=300, deadline=None)
@given(ops=_draws, seed=st.integers(0, 2**64 - 1), buffered=st.booleans(),
       words=st.integers(1, 16))
@example(ops=[(5, 1)], seed=5, buffered=True, words=8)  # draws nothing, keeps the half
def test_replay_matches_direct_draws(ops, seed, buffered, words):
    """Equal values, and an equal ``bit_generator.state`` after exit —
    ``has_uint32`` and ``uinteger`` included — with chunks of ``words``
    so one batch spans several."""
    direct, replayed = _twins(seed, buffered)
    want = [_draw(direct, op) for op in ops]
    with Replay(replayed, words) as draws:
        got = [_draw(draws, op) for op in ops]
    assert got == want
    assert replayed.bit_generator.state == direct.bit_generator.state
    assert _draw(replayed, (0, 7)) == _draw(direct, (0, 7))


@pytest.mark.parametrize("buffered", [False, True])
def test_replay_exit_on_error_leaves_the_direct_state(buffered):
    ops = [None, (0, 7), (0, 2**31 + 1), None, (0, 3)] * 7
    direct, replayed = _twins(11, buffered)
    for op in ops:
        _draw(direct, op)
    with pytest.raises(RuntimeError, match="mid-batch"):
        with Replay(replayed, 4) as draws:
            for op in ops:
                _draw(draws, op)
            raise RuntimeError("mid-batch")
    assert replayed.bit_generator.state == direct.bit_generator.state


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                           np.random.PCG64DXSM, np.random.SFC64])
def test_replay_rejects_other_bit_generators_by_name(bit_generator):
    # Only a Generator over another bit generator can show the rejection.
    rng = np.random.Generator(bit_generator(0))  # selfcheck: allow[SC101]
    with pytest.raises(TypeError, match=bit_generator.__name__):
        Replay(rng, 8)


@pytest.mark.parametrize("low, high", [(0, 0), (3, 2), (0, 2**32 + 1)])
def test_replay_rejects_ranges_it_cannot_draw(low, high):
    with Replay(stream("test.replay.range"), 8) as draws:
        with pytest.raises(ValueError, match="high - low"):
            draws.integers(low, high)
