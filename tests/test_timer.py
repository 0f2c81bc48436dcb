"""repro.utils.timer: the benchmark scenarios' measurement layer."""

from __future__ import annotations

import time

import pytest

from repro.utils.timer import Timer, best_of


def test_timer_measures_elapsed_wall_clock():
    with Timer() as t:
        time.sleep(0.01)
    assert t.elapsed >= 0.01
    # Final once exited: stable across reads.
    assert t.elapsed == t.elapsed


def test_timer_reads_while_running():
    with Timer() as t:
        first = t.elapsed
        time.sleep(0.005)
        second = t.elapsed
    assert 0 <= first <= second <= t.elapsed


def test_timer_is_reusable():
    t = Timer()
    with t:
        pass
    short = t.elapsed
    with t:
        time.sleep(0.01)
    assert t.elapsed >= 0.01 > short


def test_timer_unentered_raises():
    with pytest.raises(RuntimeError, match="never entered"):
        Timer().elapsed


def test_best_of_returns_min_and_runs_repeats_times():
    calls = []
    best = best_of(lambda: calls.append(len(calls)), repeats=4)
    assert len(calls) == 4
    assert best >= 0.0


def test_best_of_rejects_zero_repeats():
    with pytest.raises(ValueError):
        best_of(lambda: None, repeats=0)
