"""Named, hash-derived RNG streams.

Every source of randomness in the reproduction flows through here so that
any experiment is bit-for-bit reproducible given the root seed (DESIGN.md
§7).  A stream is addressed by a string name ("dataset.cpu.resnet50",
"sampler.sketch", ...); the seed is derived by hashing the name together
with the root seed, so adding a new stream never perturbs existing ones.

This module is the only place in ``src/`` allowed to touch ``np.random``
directly — ``repro.analysis.lint`` rule SC101 enforces that.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Default root seed for the whole reproduction.  Experiments may override
#: it per-run; tests pin it implicitly by calling :func:`stream` with the
#: default.
ROOT_SEED: int = 0


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


__all__ = ["ROOT_SEED", "seed_for", "stream"]
