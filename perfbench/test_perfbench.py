"""Tests of the perfbench helpers, plus a tiny-input run of each workload.

Run with ``python -m pytest perfbench -q`` from the repository root (the
tier-1 suite does not collect this directory).
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import runner
import workloads
from harness import Round, Span, Tracer, calibrate, self_times, tail_percentile
from repro.core import TLPModelConfig

HERE = Path(__file__).resolve().parent


# -- calibration -------------------------------------------------------


def test_calibrate_rescales_by_the_median_probe():
    ref = harness.REF_PROBE_S
    assert calibrate(2.0, [ref] * 6) == pytest.approx(2.0)
    # A host twice as slow as the reference: half the wall time counts.
    assert calibrate(2.0, [2 * ref] * 3) == pytest.approx(1.0)
    assert calibrate(2.0, [ref / 2] * 3) == pytest.approx(4.0)


def test_calibrate_ignores_one_hiccuping_probe():
    ref = harness.REF_PROBE_S
    steady = calibrate(1.0, [ref, ref, ref, ref, ref, ref])
    assert calibrate(1.0, [ref, ref, 50 * ref, ref, ref, ref]) == pytest.approx(steady)
    assert calibrate(1.0, [ref, ref, ref / 50, ref, ref, ref]) == pytest.approx(steady)


def test_calibrate_exponent():
    ref = harness.REF_PROBE_S
    # Work that slows by sqrt(s) when the probe slows by s.
    assert calibrate(1.0, [4 * ref] * 3, exponent=0.5) == pytest.approx(0.5)
    assert calibrate(1.0, [4 * ref] * 3, exponent=0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        calibrate(1.0, [])


def test_kind_aggregates_weigh_every_kind_once():
    rounds = [
        Round("big", 200.0, 2.0, 2.0),
        Round("big", 200.0, 4.0, 2.0),
        Round("big", 200.0, 3.0, 2.0),
        Round("small", 100.0, 1.0, 1.0),
    ]
    # One big (200 in 2 s) plus one small (100 in 1 s), however many rounds.
    assert harness.rate(rounds) == pytest.approx(300.0 / 3.0)
    assert harness.rate(rounds, calibrated=False) == pytest.approx(300.0 / 4.0)
    # Mean of the kinds' medians: big 2 s (wall 3 s), small 1 s.
    assert harness.p50(rounds) == pytest.approx(1.5)
    assert harness.p50(rounds, calibrated=False) == pytest.approx((3.0 + 1.0) / 2)
    assert harness.p50(rounds + [Round("tiny", 1.0, 0.5, 0.5)]) == pytest.approx(3.5 / 3)
    with pytest.raises(ValueError):
        harness.p50([])


@pytest.mark.parametrize("values", [[3.0], [1.0, 5.0], [4.0, 1.0, 9.0], [2.0, 8.0, 4.0, 6.0]])
def test_p50_of_one_kind_is_the_plain_median(values):
    rounds = [Round("only", 1.0, v, v) for v in values]
    assert harness.p50(rounds) == pytest.approx(statistics.median(values))


# -- tail rule ---------------------------------------------------------


@pytest.mark.parametrize("n, p", [(20, 50), (34, 70), (100, 90), (128, 92), (1000, 99), (5000, 99)])
def test_tail_percentile_leaves_ten_rounds_beyond(n, p):
    values = [float(i) for i in range(1, n + 1)]
    got_p, value, got_n = tail_percentile(values[::-1])  # order must not matter
    assert (got_p, got_n) == (p, n)
    assert value == values[math.ceil(p * n / 100) - 1]
    assert sum(v > value for v in values) >= 10
    # One percentile higher would leave fewer than ten beyond.
    if p < 99:
        assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_percentile_fails_instead_of_reporting_the_maximum():
    with pytest.raises(ValueError, match="too few"):
        tail_percentile([1.0] * 19)
    with pytest.raises(ValueError):
        tail_percentile([])


# -- tracing -----------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        Span("round", 0.0, 10.0, -1, 1),
        Span("attention", 1.0, 6.0, 0, 1),  # 5 s, of which linear 2 s
        Span("linear", 2.0, 4.0, 1, 1),
        Span("linear", 7.0, 8.0, 0, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 3.0, 2.0, 1.0])


class _Layer:
    def __init__(self):
        self.calls = []

    def inner(self, n):
        self.calls.append(n)
        return n

    def outer(self, n):
        return self.inner(n) + self.inner(n)

    @classmethod
    def build(cls, n):
        return n * 2


class _Child(_Layer):
    pass


def test_tracer_records_nested_spans_and_restores_the_program():
    original = {name: _Layer.__dict__[name] for name in ("inner", "outer", "build")}
    tracer = Tracer()
    tracer.patch(_Layer, "outer", "outer_s")
    tracer.patch(_Layer, "inner", "inner_s",
                 count=lambda a, k, r, t: (("inner.calls", 1),))
    tracer.patch(_Layer, "build", "build_s")
    tracer.patch(_Child, "inner", "child_s")  # inherited: must not stay shadowed
    layer = _Layer()
    tracer.install()
    try:
        assert layer.outer(3) == 6  # outside a round: not recorded
        assert tracer.spans == []
        tracer.open_round(7)
        assert layer.outer(3) == 6
        assert _Layer.build(4) == 8
        tracer.close_round()
    finally:
        tracer.uninstall()
    assert {name: _Layer.__dict__[name] for name in original} == original
    assert "inner" not in _Child.__dict__
    names = [s.name for s in tracer.spans]
    assert names == ["round", "outer_s", "inner_s", "inner_s", "build_s"]
    assert all(s.round == 7 for s in tracer.spans)
    outer = tracer.spans[1]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1, 0]
    assert tracer.counts["inner.calls"] == 2
    per_name, total, covered = tracer.layer_seconds()
    own = self_times(tracer.spans)
    assert per_name["outer_s"] == pytest.approx(own[1])
    assert per_name["outer_s"] <= outer.end - outer.start
    assert covered == pytest.approx(sum(own[1:]))
    assert total == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)
    # Calibration scale applies per round.
    scaled, _, _ = tracer.layer_seconds({7: 2.0})
    assert scaled["inner_s"] == pytest.approx(2 * per_name["inner_s"])


def test_instrument_patches_resolve():
    """Every instrumented name exists where its caller looks it up."""
    tracer = Tracer()
    workloads.instrument(tracer)
    tracer.install()
    tracer.uninstall()
    names = {name for _, _, name, _, _ in tracer._registered}
    metrics = {name for name, _ in workloads.LAYER_METRICS}
    assert names <= metrics


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(workloads.LAYER_METRICS)


# -- tiny workload runs ------------------------------------------------

_TINY_MODEL = TLPModelConfig(hidden=16, n_heads=2, n_res_blocks=1)


def _tiny(name, work_dir):
    if name == "build":
        return workloads.Build(3, work_dir, candidates=8, pools=("bert_tiny", "resnet18"))
    if name == "train":
        return workloads.Train(3, work_dir, candidates=16, model_config=_TINY_MODEL,
                               batch_size=32, segment_size=8)
    return workloads.Search(3, work_dir, n=24, k=4, model_config=_TINY_MODEL)


def test_search_slot_fixes_the_inputs(tmp_path):
    """A traced replay of a slot proposes and picks what its untraced
    round did, so the pair measures the same work."""
    search = _tiny("search", tmp_path)
    search.setup(0)
    kind = search.kinds[1]
    (n1, (top1, _, lat1)), (n2, (top2, _, lat2)) = (search.round(kind, 5) for _ in range(2))
    assert n1 == n2 and top1.indices.tolist() == top2.indices.tolist()
    assert lat1.tobytes() == lat2.tobytes()
    assert search.round(kind, 6)[1][0].indices.tolist() != top1.indices.tolist()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["build", "train", "search"])
def test_tiny_workload_run(name, trace, tmp_path):
    lines: list[str] = []
    spans = tmp_path / "spans.jsonl"
    result = runner.measure(_tiny(name, tmp_path), 0.5, bool(trace), 0.1,
                            out=lines.append, spans_path=spans)
    text = "\n".join(lines)
    assert result["correct"], text
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = workloads.LAYER_METRICS if trace else runner.END_TO_END
    assert list(result["metrics"]) == [m for m, _ in expected]
    for metric, unit in expected:
        assert result["metrics"][metric]["unit"] == unit
        assert math.isfinite(result["metrics"][metric]["value"])
        assert f"{metric} " in text
    if trace:
        assert 0.0 < result["metrics"]["trace.coverage_pct"]["value"] <= 100.0
        assert spans.stat().st_size > 0
    else:
        assert all(result["metrics"][m]["value"] > 0 for m, _ in expected)
        if name != "build":
            assert "round_tail_ms" in text
    assert "checks: all passed" in text
    json.dumps(result)


def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
