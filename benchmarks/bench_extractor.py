"""Micro-benchmarks pinning the feature-pipeline perf claims (ISSUE 2).

The claims, measured on a 1,024-sequence batch of sampled matmul
schedules:

* ``TLPFeaturizer.transform`` (the grouped encoder, row memo warm) is
  >= 5x faster than the naive per-primitive reference extractor, and
  ``transform_into`` over held buffers (the steady state of the dataset
  build and of search rounds) >= 3x;
* ``verify_many`` beats a Python loop of per-sequence ``verify`` calls.

``test_perf_claims`` asserts that each timed pair does the same work
(bit-identical outputs).  ``test_perf_floors`` asserts the ratios with
wide margins; like every wall-clock floor it is marked ``bench_check``
and runs under ``make bench-check``, not tier-1.  Each ratio is the
median of per-repeat ratios, the two sides timed alternately
(:func:`median_ratio`), so a burst of outside load lands on both sides.
:func:`scenario` records the exact numbers into
``BENCH_feature_pipeline.json`` (``python benchmarks/save.py
feature_pipeline``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.verifier import verify_many, verify_sequence
from repro.core import PostprocessConfig, TLPFeaturizer, reference_transform
from repro.tensorir import SketchConfig, SketchGenerator, matmul_subgraph
from repro.utils.rng import stream
from repro.utils.timer import Timer, best_of

BATCH = 1024
REPEATS = 5
#: Repeats of each side of a floor's ratio.
FLOOR_REPEATS = 7


def build_corpus():
    gen = SketchGenerator(SketchConfig("cpu"))
    return gen.generate_many(matmul_subgraph(128, 128, 128), BATCH, stream("bench.extractor"))


def median_ratio(slow, fast, repeats: int = FLOOR_REPEATS) -> float:
    """Median over ``repeats`` of ``seconds(slow()) / seconds(fast())``,
    the two sides timed alternately (slow, fast, slow, fast, ...): a burst
    of outside load covers both sides of one ratio, or spoils only a
    minority of the ratios, where two best-of blocks timed apart let it
    slow one side alone."""
    ratios = []
    for _ in range(repeats):
        with Timer() as t_slow:
            slow()
        with Timer() as t_fast:
            fast()
        ratios.append(t_slow.elapsed / t_fast.elapsed)
    return float(np.median(ratios))


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def fitted(corpus):
    featurizer = TLPFeaturizer(PostprocessConfig())
    featurizer.fit(corpus)
    featurizer.transform(corpus)  # prime the row memo
    return featurizer


def test_transform_vectorized(benchmark, fitted, corpus):
    """The shipped pipeline, row memo warm (round >= 2 of a search)."""
    X, mask = benchmark(fitted.transform, corpus)
    assert X.shape == (BATCH, 25, 22)
    assert mask.shape == (BATCH, 25)


def test_transform_vectorized_uncached(benchmark, corpus):
    """Row memo emptied before each call: the cold encode."""
    featurizer = TLPFeaturizer(PostprocessConfig()).fit(corpus)
    X, _ = benchmark.pedantic(featurizer.transform, (corpus,), setup=featurizer.cache_clear,
                              rounds=REPEATS)
    assert X.shape == (BATCH, 25, 22)
    assert featurizer.cache_info()["rows_encoded"] == featurizer.cache_info()["row_memo_size"] > 0


def test_transform_reference(benchmark, fitted, corpus):
    """The naive per-primitive baseline (no caches, per-sequence crop/pad)."""
    X, _ = benchmark(reference_transform, fitted, corpus)
    assert X.shape == (BATCH, 25, 22)


def test_verify_loop(benchmark, corpus):
    subgraph = corpus[0].subgraph
    sequences = [s.primitives for s in corpus]
    out = benchmark(lambda: [verify_sequence(subgraph, seq) for seq in sequences])
    assert len(out) == BATCH


def test_verify_many(benchmark, corpus):
    subgraph = corpus[0].subgraph
    sequences = [s.primitives for s in corpus]
    out = benchmark(verify_many, subgraph, sequences)
    assert len(out) == BATCH


def test_perf_claims(benchmark, corpus):
    """The paths the ratios compare produce bit-identical outputs."""
    fitted = TLPFeaturizer(PostprocessConfig()).fit(corpus)
    X_ref, M_ref = benchmark.pedantic(reference_transform, (fitted, corpus),
                                      rounds=1, iterations=1)
    for _ in range(2):  # first call, then with the row memo warm
        X, M = fitted.transform(corpus)
        assert np.array_equal(X, X_ref) and np.array_equal(M, M_ref)
    X_buf, M_buf = np.empty_like(X_ref), np.empty_like(M_ref)
    fitted.transform_into(corpus, X_buf, M_buf)
    assert np.array_equal(X_buf, X_ref) and np.array_equal(M_buf, M_ref)
    subgraph = corpus[0].subgraph
    sequences = [s.primitives for s in corpus]
    loop = [verify_sequence(subgraph, s) for s in sequences]
    assert verify_many(subgraph, sequences) == loop


@pytest.mark.bench_check
def test_perf_floors(benchmark, corpus):
    """Assert the ISSUE 2 acceptance ratios (margins well below measured)."""

    def measure():
        fitted = TLPFeaturizer(PostprocessConfig()).fit(corpus)
        X_buf, M_buf = fitted.transform(corpus)  # warms the row memo
        subgraph = corpus[0].subgraph
        sequences = [s.primitives for s in corpus]
        reference = lambda: reference_transform(fitted, corpus)
        return {
            "transform_speedup": median_ratio(reference, lambda: fitted.transform(corpus)),
            "steady_speedup": median_ratio(
                reference, lambda: fitted.transform_into(corpus, X_buf, M_buf)),
            "verify_speedup": median_ratio(
                lambda: [verify_sequence(subgraph, s) for s in sequences],
                lambda: verify_many(subgraph, sequences)),
        }

    ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert ratios["transform_speedup"] >= 5.0, ratios
    assert ratios["steady_speedup"] >= 3.0, ratios
    assert ratios["verify_speedup"] >= 1.05, ratios


def scenario() -> dict:
    """The ``feature_pipeline`` scenario: every timed path above, best of 5."""
    with Timer() as t_sample:
        corpus = build_corpus()
    subgraph = corpus[0].subgraph
    sequences = [s.primitives for s in corpus]
    fitted = TLPFeaturizer(PostprocessConfig())
    with Timer() as t_fit:
        fitted.fit(corpus)

    def cold() -> None:  # row memo emptied: every row encoded afresh
        fitted.cache_clear()
        fitted.transform(corpus)

    t_cold = best_of(cold, REPEATS)  # leaves the row memo warm
    stages = {
        "sample_and_batch_verify": t_sample.elapsed,
        "fit": t_fit.elapsed,
        "transform_cold": t_cold,
        "transform_steady": best_of(lambda: fitted.transform(corpus), REPEATS),
        "transform_reference": best_of(lambda: reference_transform(fitted, corpus), REPEATS),
        "verify_loop": best_of(
            lambda: [verify_sequence(subgraph, seq) for seq in sequences], REPEATS),
        "verify_many": best_of(lambda: verify_many(subgraph, sequences), REPEATS),
    }
    return {
        "config": {"batch": BATCH, "subgraph": subgraph.name, "repeats": REPEATS,
                   "feature_shape": [fitted.config.seq_len, fitted.config.emb]},
        "throughput": {
            "transform_steady_sequences_per_sec": BATCH / stages["transform_steady"]},
        "stages": stages,
        "counters": {"mean_sequence_length": sum(map(len, sequences)) / BATCH,
                     "raw_width": fitted.raw_width_},
        "digest": None,
    }
