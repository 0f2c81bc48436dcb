"""Run the benchmark scenarios and write one ``BENCH_<scenario>.json`` each.

    python benchmarks/save.py                  # every scenario, in order
    python benchmarks/save.py simhw absint     # only the named ones

``make bench-save`` runs them all (~3 min on one core, most of it the
``dataset`` scenario).  A scenario is the ``scenario()`` function of the
benchmark module whose tier-1 tests check the same paths, so its inputs
are built in one place.  It returns every field of the one schema but
``scenario``:

* ``config`` — the inputs: sizes, streams, model and train configs;
* ``stages`` — wall seconds per timed path: the best of the scenario's
  repeats, or one run for a path that only runs once (a cold start, a
  build, a training run);
* ``throughput`` — named rates;
* ``counters`` — every other measured value (arena hits, records, peak
  RSS, final loss, top-k, ...);
* ``digest`` — the run's determinism digest, or ``null``.

Ratios are not stored: compute them from ``stages``.  A scenario's
checks are asserts, so a failing check writes no file.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: Scenario name -> the benchmark module whose ``scenario()`` measures it,
#: in the order a full run goes.
SCENARIOS = {
    "feature_pipeline": "bench_extractor",
    "nn_inference": "bench_inference",
    "simhw": "bench_simhw",
    "absint": "bench_absint",
    "dataset": "bench_dataset",
    "training": "bench_training",
}
FIELDS = ("scenario", "config", "throughput", "stages", "counters", "digest")


def bench_path(name: str) -> Path:
    return REPO_ROOT / f"BENCH_{name}.json"


def check_report(report: dict) -> None:
    """The schema every ``BENCH_*.json`` file keeps."""
    assert set(report) == set(FIELDS), sorted(report)
    assert report["scenario"] in SCENARIOS, report["scenario"]
    stages = report["stages"]
    assert stages and all(isinstance(s, float) and s > 0 for s in stages.values()), stages


def run(name: str) -> dict:
    report = {"scenario": name, **importlib.import_module(SCENARIOS[name]).scenario()}
    report["stages"] = {k: round(v, 6) for k, v in report["stages"].items()}
    report["throughput"] = {k: round(v, 1) for k, v in report["throughput"].items()}
    check_report(report)
    return report


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        print(f"unknown scenario {unknown[0]!r}; the scenarios are: {', '.join(SCENARIOS)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO_ROOT / "src"), str(BENCH_DIR)]
    for name in names or SCENARIOS:
        report = run(name)
        path = bench_path(name)
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
        for stage, seconds in report["stages"].items():
            print(f"  {stage:>26}: {seconds:.6f} s")
        for rate, value in report["throughput"].items():
            print(f"  {rate:>36}: {value:,.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
