"""Micro-benchmarks pinning the inference fast-path perf claims (ISSUE 4).

The claims, measured on a 1,024-schedule featurized batch of sampled
matmul schedules (the batch geometry one evolutionary round scores):

* tape-free ``TLPModel.predict`` is faster than the taped ``forward``
  (~2.2x with one BLAS thread: the same layer kernels, without fresh
  arrays or the tape) — and bit-identical to it;
* steady-state ``predict`` allocates no large buffers (every scratch
  probe hits the arena);
* the end-to-end ``CandidateScorer`` loop (verify -> featurize ->
  predict -> top-k) sustains serving-grade candidates/sec.

:func:`scenario` records the exact numbers into
``BENCH_nn_inference.json`` (``python benchmarks/save.py nn_inference``).
``test_perf_claims``
asserts what the speedup rests on and holds under any load: ``predict``
is bit-identical to the taped forward and allocates nothing once warm.
``test_perf_floors`` asserts the ratio with a wide margin: the taped
baseline's cost is dominated by large-buffer allocation, whose price
swings ~2x with host memory state (hugepage availability), while the
allocation-free ``predict`` is stable — so the floor is set below the
worst observed ratio and exists to catch fast-path regressions, not to
pin the headline number.  It is marked ``bench_check`` (``make
bench-check``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    CandidateScorer,
    PostprocessConfig,
    TLPFeaturizer,
    TLPModel,
    TLPModelConfig,
)
from repro.nn import no_grad
from repro.tensorir import SketchConfig, SketchGenerator, matmul_subgraph
from repro.utils.rng import stream
from repro.utils.timer import Timer, best_of

BATCH = 1024
TOP_K = 32
REPEATS = 5

_CONFIG = TLPModelConfig(emb=22, hidden=64, n_heads=4, n_res_blocks=2,
                         stream_name="bench.inference.model")


def build_inputs():
    """The corpus, its fitted featurizer, the ``(X, mask)`` batch, the model."""
    gen = SketchGenerator(SketchConfig("cpu"))
    corpus = gen.generate_many(matmul_subgraph(128, 128, 128), BATCH,
                               stream("bench.inference"))
    featurizer = TLPFeaturizer(PostprocessConfig()).fit(corpus)
    return corpus, featurizer, featurizer.transform(corpus), TLPModel(_CONFIG).eval()


@pytest.fixture(scope="module")
def inputs():
    return build_inputs()


@pytest.fixture(scope="module")
def batch(inputs):
    return inputs[2]


@pytest.fixture(scope="module")
def model(inputs):
    return inputs[3]


def test_taped_forward_batch1024(benchmark, model, batch):
    """Baseline: the full autograd-taped forward pass."""
    X, mask = batch
    scores = benchmark(model, X, mask)
    assert scores.data.shape == (BATCH,)


def test_no_grad_forward_batch1024(benchmark, model, batch):
    """Taped ops without tape recording: intermediates freed eagerly."""
    X, mask = batch

    def run():
        with no_grad():
            return model(X, mask)

    scores = benchmark(run)
    assert scores.data.shape == (BATCH,)


def test_predict_batch1024(benchmark, model, batch):
    """The fused fast path; asserts bit-identity against the taped run."""
    X, mask = batch
    taped = model(X, mask).data
    scores = benchmark(model.predict, X, mask)
    assert np.array_equal(scores, taped)


def test_candidate_scorer_end_to_end(benchmark, inputs):
    """verify -> featurize -> predict -> top-k over the full batch."""
    corpus, featurizer, _, model = inputs
    scorer = CandidateScorer(model, featurizer)
    top = benchmark(scorer.score_topk, corpus[0].subgraph, corpus, TOP_K)
    assert len(top.indices) == TOP_K
    assert top.n_invalid == 0


def test_perf_claims(benchmark, model, batch):
    """The fast path's deterministic claims: bit-identical, zero-alloc.

    Steady-state ``predict`` must equal the taped forward bit for bit
    and take every scratch buffer from the warm arena.
    """
    X, mask = batch
    taped = model(X, mask).data
    model.predict(X, mask)  # warm the arena
    model._arena.reset_counters()
    scores = benchmark.pedantic(model.predict, (X, mask), rounds=1, iterations=1)
    info = model.scratch_info()
    assert np.array_equal(scores, taped)
    assert info["misses"] == 0 and info["hits"] > 0, info


@pytest.mark.bench_check
def test_perf_floors(benchmark, model, batch):
    """Regression floor for the fast path (headline number: :func:`scenario`).

    The floor is 1.5x, well under the ratio of the recorded
    ``forward_taped`` and ``predict_steady`` stages: when the host can
    back the taped path's ~6 MB intermediates with hugepages, taped
    allocation gets ~2x cheaper and the measured ratio dips toward 1.8
    even though ``predict``'s absolute time is unchanged.  A fast-path
    regression (e.g. accidental per-call allocation) would push the
    ratio toward 1.0 and still trip this.
    """
    X, mask = batch

    def measure():
        model.predict(X, mask)  # warm the arena
        t_taped = best_of(lambda: model(X, mask), repeats=3)
        t_predict = best_of(lambda: model.predict(X, mask), repeats=3)
        return {"predict_speedup": t_taped / t_predict}

    ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert ratios["predict_speedup"] >= 1.5, ratios


def scenario() -> dict:
    """The ``nn_inference`` scenario: the paths above, best of 5, checked
    bit-identical and allocation-free before anything is recorded;
    ``predict_cold`` is the median of 5 calls, each on an emptied
    arena."""
    corpus, featurizer, (X, mask), model = build_inputs()
    taped = model(X, mask).data
    t_taped = best_of(lambda: model(X, mask), REPEATS)

    def forward_no_grad():
        with no_grad():
            model(X, mask)

    forward_no_grad()
    t_no_grad = best_of(forward_no_grad, REPEATS)

    def predict_cold():
        model._arena.clear()  # cold: the call builds every scratch buffer
        with Timer() as t:
            scores = model.predict(X, mask)
        assert np.array_equal(scores, taped), "predict() diverged from the taped forward"
        return t.elapsed

    t_cold = float(np.median([predict_cold() for _ in range(REPEATS)]))
    model._arena.reset_counters()  # steady: arena warm, the serving regime
    t_predict = best_of(lambda: model.predict(X, mask), REPEATS)
    assert model._arena.misses == 0, model.scratch_info()
    scorer = CandidateScorer(model, featurizer)
    subgraph = corpus[0].subgraph
    scorer.score_topk(subgraph, corpus, TOP_K)  # warm caches end to end
    t_scorer = best_of(lambda: scorer.score_topk(subgraph, corpus, TOP_K), REPEATS)
    return {
        "config": {"batch": BATCH, "top_k": TOP_K, "repeats": REPEATS,
                   "model": dataclasses.asdict(_CONFIG)},
        "throughput": {"predict_candidates_per_sec": BATCH / t_predict,
                       "scorer_candidates_per_sec": BATCH / t_scorer},
        "stages": {"forward_taped": t_taped, "forward_no_grad": t_no_grad,
                   "predict_cold": t_cold, "predict_steady": t_predict,
                   "scorer_end_to_end": t_scorer},
        "counters": model.scratch_info(),
        "digest": None,
    }
