"""Micro-benchmarks pinning the simulated-hardware perf claims (ISSUE 5).

The acceptance claim: ``measure_many`` labels 10,000 verified schedules
on one platform in under 10 s on a single core.  In practice the batch
costing is two orders of magnitude inside that budget — the vectorized
``NestFeatures`` planes mean the per-schedule cost is ``Schedule.apply``
plus a constant share of a handful of ``[N, D]`` array expressions.
:func:`scenario` records the exact numbers into ``BENCH_simhw.json``
(``python benchmarks/save.py simhw``).
``test_perf_claims`` asserts that the batch labels every schedule and
reproduces bit for bit; the budget itself is ``test_perf_floors``, a
``bench_check`` floor (``make bench-check``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.simhw import ALL_PLATFORMS, PLATFORMS, measure, measure_many
from repro.simhw.measure import extract_features
from repro.tensorir import SketchConfig, SketchGenerator, matmul_subgraph
from repro.utils.rng import stream
from repro.utils.timer import Timer, best_of

BATCH = 10_000
REPEATS = 3
_SUB = matmul_subgraph(128, 128, 128)
_INTEL = PLATFORMS["platinum-8272"]


def build_corpus(target: str, stream_name: str):
    return SketchGenerator(SketchConfig(target)).generate_many(_SUB, BATCH, stream(stream_name))


@pytest.fixture(scope="module")
def corpus():
    return build_corpus("cpu", "bench.simhw")


@pytest.fixture(scope="module")
def gpu_corpus():
    return build_corpus("gpu", "bench.simhw.gpu")


def test_measure_many_cpu(benchmark, corpus):
    latencies = benchmark(measure_many, _SUB, corpus, _INTEL)
    assert latencies.shape == (BATCH,) and np.all(latencies > 0)


def test_measure_many_gpu(benchmark, gpu_corpus):
    latencies = benchmark(measure_many, _SUB, gpu_corpus, PLATFORMS["t4"])
    assert latencies.shape == (BATCH,) and np.all(latencies > 0)


def test_feature_extraction_only(benchmark, corpus):
    """Schedule.apply + plane flattening — the non-vectorizable share."""
    features = benchmark(extract_features, _SUB, corpus, _INTEL)
    assert features.n == BATCH


def test_measure_loop_small(benchmark, corpus):
    """The per-schedule path, for the batch-vs-loop ratio (256 singles)."""
    subset = corpus[:256]
    out = benchmark(lambda: [measure(_SUB, s, _INTEL) for s in subset])
    assert len(out) == 256


def test_perf_claims(benchmark, corpus):
    """The batch the budget times labels all 10k schedules, reproducibly."""
    latencies = benchmark.pedantic(measure_many, (_SUB, corpus, _INTEL),
                                   rounds=1, iterations=1)
    assert latencies.shape == (BATCH,)
    assert np.isfinite(latencies).all() and (latencies > 0).all()
    assert np.array_equal(measure_many(_SUB, corpus, _INTEL), latencies)


@pytest.mark.bench_check
def test_perf_floors(benchmark, corpus):
    """Assert the ISSUE 5 acceptance budget with a wide margin."""

    def measure_once():
        return best_of(lambda: measure_many(_SUB, corpus, _INTEL), repeats=3)

    seconds = benchmark.pedantic(measure_once, rounds=1, iterations=1)
    assert seconds < 10.0, f"10k labels took {seconds:.2f}s (budget 10s)"


def scenario() -> dict:
    """The ``simhw`` scenario: 10k labels per target, best of 3, and the
    latency digest of one sweep over all 7 platforms."""
    with Timer() as t_gen:
        cpu = build_corpus("cpu", "bench.simhw.save.cpu")
        gpu = build_corpus("gpu", "bench.simhw.save.gpu")
    t_extract = best_of(lambda: extract_features(_SUB, cpu, _INTEL), REPEATS)
    t_cpu = best_of(lambda: measure_many(_SUB, cpu, _INTEL), REPEATS)
    t_gpu = best_of(lambda: measure_many(_SUB, gpu, PLATFORMS["t4"]), REPEATS)
    digest = hashlib.sha256()
    with Timer() as t_sweep:
        for platform in ALL_PLATFORMS:
            latencies = measure_many(_SUB, cpu if platform.target == "cpu" else gpu, platform)
            assert np.all(latencies > 0), platform.name
            digest.update(latencies.tobytes())
    return {
        "config": {"batch": BATCH, "subgraph": _SUB.name, "repeats": REPEATS,
                   "platforms": list(PLATFORMS)},
        "throughput": {"cpu_labels_per_sec": BATCH / t_cpu,
                       "gpu_labels_per_sec": BATCH / t_gpu},
        "stages": {"generate_2x10k": t_gen.elapsed, "extract_features_10k": t_extract,
                   "measure_many_cpu_10k": t_cpu, "measure_many_gpu_10k": t_gpu,
                   "sweep_all_platforms": t_sweep.elapsed},
        "counters": {},
        "digest": digest.hexdigest(),
    }
