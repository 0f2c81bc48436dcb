"""Wall-clock instrumentation (DESIGN.md §3).

A tiny, dependency-free layer over ``time.perf_counter`` used by the
benchmark scenarios (``python benchmarks/save.py``, ``make bench-save``),
the wall-clock floors, the smokes, and anywhere a subsystem wants a
structured timing without pulling in pytest-benchmark.
"""

from __future__ import annotations

import time
from typing import Callable


class Timer:
    """Context manager measuring wall-clock seconds.

    >>> with Timer() as t:
    ...     do_work()
    >>> t.elapsed  # seconds, float
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self._elapsed: float | None = None

    def __enter__(self) -> "Timer":
        self._elapsed = None
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._elapsed = time.perf_counter() - self._start

    @property
    def elapsed(self) -> float:
        """Seconds since entry — final once exited, running while inside."""
        if self._start is None:
            raise RuntimeError("Timer was never entered")
        if self._elapsed is None:
            return time.perf_counter() - self._start
        return self._elapsed


def best_of(fn: Callable[[], object], repeats: int = 5) -> float:
    """Minimum wall-clock seconds of ``fn()`` over ``repeats`` runs.

    The min — not the mean — estimates the true cost of the code path
    under scheduler noise; this is the measurement the benchmark
    scenarios record as ``stages`` in the ``BENCH_*.json`` files.
    """
    if repeats < 1:
        raise ValueError("best_of needs repeats >= 1")
    best = float("inf")
    for _ in range(repeats):
        with Timer() as t:
            fn()
        best = min(best, t.elapsed)
    return best


__all__ = ["Timer", "best_of"]
