"""Abstract-interpreter benchmarks: static profiling throughput and the
Pruner-style draft-then-verify serving win.

The headline comparison: ``CandidateScorer.propose_topk`` with
``draft_keep=0.5`` must beat the full-predict path on wall clock while
sending at most half the candidates to ``TLPModel.predict`` and
preserving the full path's exact top-1 pick.  For the draft to be a
*meaningful* screen the model has to rank like the simulated hardware,
so the fixture briefly trains the TLP model on ``simhw`` labels (the
seeded recipe below is deterministic end to end); at ``hidden=256`` one
predict over 1,024 candidates costs ~0.7 s, which is the regime where a
free static draft pays for itself.  :func:`scenario` records the numbers
into ``BENCH_absint.json`` (``python benchmarks/save.py absint``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import absint
from repro.core.extractor import TLPFeaturizer
from repro.core.postprocess import PostprocessConfig
from repro.core.scoring import CandidateScorer
from repro.core.tlp_model import TLPModel, TLPModelConfig
from repro.nn import Adam, mse_loss
from repro.simhw import labels_from_latencies, measure_many
from repro.tensorir import SketchConfig, SketchGenerator, matmul_subgraph
from repro.utils.rng import stream
from repro.utils.timer import Timer, best_of

N_CANDIDATES = 1024
REPEATS = 3
TOP_K = 16
DRAFT_KEEP = 0.5

_TRAIN = 512
_EPOCHS = 12
_BATCH = 64
_LR = 3e-3


def build_subgraph():
    return matmul_subgraph(128, 128, 128)


def build_trained_scorer(subgraph):
    """Featurizer + TLP model trained briefly on simhw platinum labels.

    Labels are standardized (ranking-invariant) so the regression head
    converges from its raw init scale within a few epochs; the point is
    rank correlation with the hardware model, not calibrated latencies.
    """
    gen = SketchGenerator(SketchConfig("cpu"))
    corpus = gen.generate_many(subgraph, N_CANDIDATES, stream("bench.absint.corpus"))
    featurizer = TLPFeaturizer(PostprocessConfig()).fit(corpus)
    model = TLPModel(TLPModelConfig(
        emb=featurizer.config.emb, hidden=256, n_heads=8, n_res_blocks=2,
        stream_name="bench.absint.model"))

    train = corpus[:_TRAIN]
    raw = labels_from_latencies(measure_many(subgraph, train, "platinum-8272"))
    labels = (raw - raw.mean()) / raw.std()
    X, M = featurizer.transform(train)
    opt = Adam(model.parameters(), lr=_LR)
    shuffle = stream("bench.absint.shuffle")
    for _ in range(_EPOCHS):
        order = shuffle.permutation(_TRAIN)
        for i in range(0, _TRAIN, _BATCH):
            b = order[i : i + _BATCH]
            opt.zero_grad()
            loss = mse_loss(model(X[b], M[b]), labels[b])
            loss.backward()
            opt.step()
    model.eval()
    return CandidateScorer(model, featurizer, gen)


@pytest.fixture(scope="module")
def subgraph():
    return build_subgraph()


@pytest.fixture(scope="module")
def scorer(subgraph):
    return build_trained_scorer(subgraph)


def build_candidates(subgraph):
    gen = SketchGenerator(SketchConfig("cpu"))
    return gen.generate_many(subgraph, N_CANDIDATES, stream("bench.absint.plane"))


@pytest.fixture(scope="module")
def candidates(subgraph):
    return build_candidates(subgraph)


def test_profile_many_throughput(benchmark, subgraph, candidates):
    """Static-feature plane extraction over the full candidate batch."""
    plane = benchmark(absint.profile_many, subgraph, candidates)
    assert plane.shape == (N_CANDIDATES, len(absint.STATIC_FEATURE_NAMES))
    assert np.isfinite(plane).all()


def test_draft_scores_throughput(benchmark, subgraph, candidates):
    """Analytical draft ranking of the full candidate batch."""
    draft = benchmark(absint.draft_scores, subgraph, candidates)
    assert draft.shape == (N_CANDIDATES,) and draft.max() == np.float32(1.0)


def _propose(scorer, subgraph, **kwargs):
    return scorer.propose_topk(subgraph, N_CANDIDATES, TOP_K,
                               stream("bench.absint.round"), **kwargs)


def test_draft_then_verify_speedup(benchmark, subgraph, scorer):
    """The work the speedup rests on: half the predicts, same top-1.

    The wall-clock ratio is ``test_draft_then_verify_speedup_floor``, a
    ``bench_check`` floor.
    """
    _, top_full = _propose(scorer, subgraph)
    _, top_draft = benchmark.pedantic(
        lambda: _propose(scorer, subgraph, draft_keep=DRAFT_KEEP),
        rounds=1, iterations=1)

    # The draft screens — it must not change the winner or widen the
    # model's workload past the keep fraction.
    assert top_draft.n_predicted <= N_CANDIDATES // 2
    assert top_full.n_predicted == N_CANDIDATES
    assert top_full.indices[0] == top_draft.indices[0], (
        f"draft-then-verify changed the top-1 pick: "
        f"{top_full.indices[0]} -> {top_draft.indices[0]}")
    # Both rankings are real model scores, descending.
    assert (top_draft.scores[:-1] >= top_draft.scores[1:]).all()
    benchmark.extra_info["n_predicted"] = int(top_draft.n_predicted)


@pytest.mark.bench_check
def test_draft_then_verify_speedup_floor(benchmark, subgraph, scorer):
    """Draft-then-verify beats the full-predict path on wall clock."""
    def measure():
        return (best_of(lambda: _propose(scorer, subgraph), 3),
                best_of(lambda: _propose(scorer, subgraph, draft_keep=DRAFT_KEEP), 3))

    t_full, t_draft = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = t_full / t_draft
    # At hidden=256 on a shared 2-vCPU x86 host, three best-of-3 runs
    # read 179-212 ms full and 120-138 ms drafted, 1.45-1.53x (the drafted
    # round interprets each candidate once: the draft is its gate; both
    # rounds sample the same 1,024 candidates, so cheaper sampling raises
    # the ratio); the floor is wide to stay robust to load.
    assert speedup > 1.05, (
        f"draft-then-verify no faster than full predict: "
        f"{t_full * 1e3:.0f} ms vs {t_draft * 1e3:.0f} ms ({speedup:.2f}x)")
    benchmark.extra_info["t_full_ms"] = t_full * 1e3
    benchmark.extra_info["t_draft_ms"] = t_draft * 1e3
    benchmark.extra_info["speedup"] = speedup


def scenario() -> dict:
    """The ``absint`` scenario: profiling and drafting 1,024 candidates and
    the full vs drafted serving round, best of 3; the drafted round must
    keep the full round's top-1 pick."""
    subgraph = build_subgraph()
    candidates = build_candidates(subgraph)
    t_profile = best_of(lambda: absint.profile_many(subgraph, candidates), REPEATS)
    t_draft = best_of(lambda: absint.draft_scores(subgraph, candidates), REPEATS)
    with Timer() as t_train:
        scorer = build_trained_scorer(subgraph)
    _, top_full = _propose(scorer, subgraph)
    _, top_draft = _propose(scorer, subgraph, draft_keep=DRAFT_KEEP)
    assert top_full.indices[0] == top_draft.indices[0], (
        f"draft-then-verify changed the top-1 pick: "
        f"{top_full.indices[0]} -> {top_draft.indices[0]}")
    return {
        "config": {"subgraph": subgraph.name, "candidates": N_CANDIDATES, "top_k": TOP_K,
                   "draft_keep": DRAFT_KEEP, "repeats": REPEATS},
        "throughput": {"profiles_per_sec": N_CANDIDATES / t_profile},
        "stages": {
            "profile_many": t_profile,
            "draft_scores": t_draft,
            "train": t_train.elapsed,
            "full_round": best_of(lambda: _propose(scorer, subgraph), REPEATS),
            "draft_round": best_of(
                lambda: _propose(scorer, subgraph, draft_keep=DRAFT_KEEP), REPEATS),
        },
        "counters": {"static_features": len(absint.STATIC_FEATURE_NAMES),
                     "n_predicted_full": int(top_full.n_predicted),
                     "n_predicted_draft": int(top_draft.n_predicted)},
        "digest": None,
    }
