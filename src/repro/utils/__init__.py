"""Shared utilities: seeded RNG streams and wall-clock timing."""

from __future__ import annotations

from repro.utils.rng import ROOT_SEED, seed_for, stream
from repro.utils.timer import Timer, best_of

__all__ = [
    "ROOT_SEED",
    "Timer",
    "best_of",
    "seed_for",
    "stream",
]
