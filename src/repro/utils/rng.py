"""Named, hash-derived RNG streams, and a bulk replay of their draws.

Every source of randomness in the reproduction flows through here so that
any experiment is bit-for-bit reproducible given the root seed (DESIGN.md
§7).  A stream is addressed by a string name ("dataset.cpu.resnet50",
"sampler.sketch", ...); the seed is derived by hashing the name together
with the root seed, so adding a new stream never perturbs existing ones.

This module is the only place in ``src/`` allowed to touch ``np.random``
directly, or a generator's ``bit_generator`` — ``repro.analysis.lint``
rule SC101 enforces that, so only :class:`Replay` knows PCG64's word
layout.
"""

from __future__ import annotations

import hashlib
from operator import length_hint

import numpy as np

#: Default root seed for the whole reproduction.  Experiments may override
#: it per-run; tests pin it implicitly by calling :func:`stream` with the
#: default.
ROOT_SEED: int = 0

_MASK32 = 0xFFFFFFFF
#: numpy's ``next_double`` keeps a word's top 53 bits and scales by 2**-53.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
#: The most words a :class:`Replay` takes at once.  A chunk is held as
#: Python ints (~45 bytes a word), so a long batch refills instead: at
#: 1,024 candidates an uncapped chunk raised a batch's traced peak from
#: ~210 KB to ~740 KB, and a capped one costs a few ``random_raw`` calls.
_MAX_CHUNK = 1024


def seed_for(name: str, root_seed: int = ROOT_SEED) -> int:
    """Derive a 64-bit seed for the named stream.

    The derivation is a SHA-256 hash of ``"{root_seed}:{name}"`` truncated
    to 8 bytes — stable across processes, platforms, and Python versions
    (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def stream(name: str, root_seed: int = ROOT_SEED) -> np.random.Generator:
    """Return a fresh ``np.random.Generator`` for the named stream.

    Two calls with the same ``(name, root_seed)`` return independent
    generators in identical states, so callers can re-derive a stream
    instead of threading generator objects through every layer.
    """
    return np.random.default_rng(seed_for(name, root_seed))


class Replay:
    """A batch's ``random()`` and ``integers(low, high)`` draws on a PCG64
    ``Generator``, computed from its 64-bit words taken in bulk.

    Both numpy calls are fixed functions of the bit generator's output
    words, so the replay returns their values exactly, at a fraction of
    a scalar numpy call's cost:

    * ``random()`` is ``next_double``: ``(word >> 11) * 2**-53``;
    * ``integers(low, high)`` is ``low`` plus numpy's 32-bit Lemire
      method over half-words — the low half of a word first, its high
      half buffered for the next call (a ``random()`` in between leaves
      it buffered), with the rejection loop drawing again while the
      product's low 32 bits fall under ``2**32 mod n``;
    * ``integers(low, low + 1)`` draws nothing.

    Use it as a context manager over one batch::

        with Replay(rng, words=12 * n) as draws:
            values = [draws.random() for _ in range(n)]

    Words come from ``bit_generator.random_raw`` in chunks of ``words``
    (the batch's expected count, at most 1,024), so the generator runs
    ahead of the draws inside the block: draw only through the replay
    there.  On exit — also when the block raises — the generator is left
    exactly where the direct calls would have left it: the start state
    is restored and advanced by the words the draws consumed, then the
    buffered half-word (``has_uint32``) and the last half that was
    buffered (``uinteger``, which numpy keeps after the half is used)
    are written back.

    Raises ``TypeError`` for a generator that is not PCG64 (every stream
    here is: :func:`stream` and ``np.random.default_rng`` make PCG64).
    """

    __slots__ = ("_bg", "_start", "_chunk", "_words", "_taken", "_has", "_half")

    def __init__(self, rng: np.random.Generator, words: int):
        bg = getattr(rng, "bit_generator", None)
        if not isinstance(bg, np.random.PCG64):
            raise TypeError(
                f"Replay needs a Generator over PCG64, got {type(bg or rng).__name__}"
            )
        self._bg = bg
        self._chunk = min(max(words, 1), _MAX_CHUNK)
        self._start = bg.state
        self._has = self._start["has_uint32"]
        self._half = self._start["uinteger"]
        self._words = iter(())
        self._taken = 0

    def __enter__(self) -> "Replay":
        return self

    def __exit__(self, *exc) -> None:
        bg = self._bg
        bg.state = self._start
        bg.advance(self._taken - length_hint(self._words))
        state = bg.state
        state["has_uint32"] = self._has
        state["uinteger"] = self._half
        bg.state = state

    def _refill(self) -> int:
        """The next word, from a fresh chunk: the last one is spent."""
        self._words = iter(self._bg.random_raw(self._chunk).tolist())
        self._taken += self._chunk
        return next(self._words)

    def _uint32(self) -> int:
        """``next_uint32``: the buffered high half, else a word's low half."""
        if self._has:
            self._has = 0
            return self._half
        word = next(self._words, None)
        if word is None:
            word = self._refill()
        self._has = 1
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """``Generator.random()``: a float in [0, 1) from the next word."""
        word = next(self._words, None)
        if word is None:
            word = self._refill()
        return (word >> 11) * _DOUBLE_SCALE

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)`` for Python ints with
        ``0 < high - low <= 2**32``, the ranges numpy draws from half-words."""
        n = high - low
        if n == 1:
            return low
        if not 0 < n <= 1 << 32:
            raise ValueError(f"Replay.integers needs 0 < high - low <= 2**32, got {low}, {high}")
        m = self._uint32() * n
        if m & _MASK32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _MASK32 < threshold:
                m = self._uint32() * n
        return low + (m >> 32)


__all__ = ["ROOT_SEED", "Replay", "seed_for", "stream"]
