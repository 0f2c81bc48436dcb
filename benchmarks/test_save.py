"""The committed ``BENCH_*.json`` files: one per registered scenario, one schema."""

from __future__ import annotations

import importlib
import json
import os
import sys
import types

import save
from save import REPO_ROOT, SCENARIOS, bench_path, check_report, main

from repro.utils.blas import openblas_core


def test_bench_files_are_the_registered_scenarios_in_one_schema():
    files = sorted(REPO_ROOT.glob("BENCH_*.json"))
    assert files == sorted(bench_path(name) for name in SCENARIOS)
    for path in files:
        report = json.loads(path.read_text(encoding="utf-8"))
        check_report(report)
        assert path == bench_path(report["scenario"])


def test_every_registered_module_defines_its_scenario():
    for module in SCENARIOS.values():
        assert callable(importlib.import_module(module).scenario), module


def test_main_pins_blas_to_one_thread(monkeypatch):
    """``main`` sets the BLAS thread count to 1 before anything else, so
    the scenarios' numpy starts with one thread."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for var in names:
        monkeypatch.delenv(var, raising=False)
    assert main(["no-such-scenario"]) == 2
    assert [os.environ.get(var) for var in names] == ["1", "1", "1"]


def test_run_records_the_openblas_kernel(monkeypatch):
    """Every report's ``config`` names the OpenBLAS kernel its GEMMs ran
    on, the one its digests and bit checks hold on."""
    module = types.ModuleType("bench_fake")
    module.scenario = lambda: {"config": {"batch": 1}, "throughput": {"rate": 2.0},
                               "stages": {"stage": 0.5}, "counters": {}, "digest": None}
    monkeypatch.setitem(sys.modules, "bench_fake", module)
    monkeypatch.setitem(save.SCENARIOS, "fake", "bench_fake")
    report = save.run("fake")
    assert report["config"] == {"batch": 1, "openblas_core": openblas_core()}
