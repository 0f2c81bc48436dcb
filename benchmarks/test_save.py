"""The committed ``BENCH_*.json`` files: one per registered scenario, one schema."""

from __future__ import annotations

import importlib
import json

from save import REPO_ROOT, SCENARIOS, bench_path, check_report


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
