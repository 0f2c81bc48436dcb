"""The candidate-scoring service (repro.core.scoring).

The load-bearing claims:

* only statically *verified* candidates are ever scored — a corrupted
  candidate is excluded from the ranking and counted in ``n_invalid``,
  never silently ranked;
* the ranking is deterministic (stable sort, earlier index wins ties)
  and bit-reproducible across scorer instances;
* the scorer refuses an unfitted featurizer at construction, loudly.
"""

from __future__ import annotations

import numpy as np
import pytest

from corruptions import zero_split_factor
from repro.analysis.absint import AbsIntError
from repro.core import (
    CandidateScorer,
    PostprocessConfig,
    ScoredTopK,
    TLPFeaturizer,
    TLPModel,
    TLPModelConfig,
)
from repro.tensorir import Schedule, SketchConfig, SketchGenerator, matmul_subgraph
from repro.utils.rng import stream

_N = 24


@pytest.fixture(scope="module")
def subgraph():
    return matmul_subgraph(128, 128, 128)


@pytest.fixture(scope="module")
def corpus(subgraph):
    gen = SketchGenerator(SketchConfig("cpu"))
    return gen.generate_many(subgraph, _N, stream("test.scoring.corpus"))


@pytest.fixture(scope="module")
def featurizer(corpus):
    return TLPFeaturizer(PostprocessConfig()).fit(corpus)


@pytest.fixture(scope="module")
def scorer(featurizer):
    model = TLPModel(TLPModelConfig(
        emb=featurizer.config.emb, hidden=16, n_heads=2, n_res_blocks=1,
        stream_name="test.scoring.model")).eval()
    return CandidateScorer(model, featurizer,
                           SketchGenerator(SketchConfig("cpu")))


def test_rejects_unfitted_featurizer(scorer):
    with pytest.raises(ValueError, match="fitted"):
        CandidateScorer(scorer.model, TLPFeaturizer(PostprocessConfig()))


def test_score_matches_predict(scorer, corpus):
    X, mask = scorer.featurizer.transform(corpus)
    direct = scorer.model.predict(X, mask)
    assert np.array_equal(scorer.score(corpus), direct)
    # and the taped forward agrees bit for bit (the serving contract)
    assert np.array_equal(direct, scorer.model(X, mask).data)


def test_topk_ranks_all_valid_candidates(scorer, subgraph, corpus):
    top = scorer.score_topk(subgraph, corpus, k=5)
    assert isinstance(top, ScoredTopK)
    assert top.n_candidates == _N and top.n_invalid == 0 and top.n_scored == _N
    assert top.indices.dtype == np.int64 and top.scores.dtype == np.float32
    assert len(top.indices) == 5
    # descending, and exactly the argsort of the full score vector
    scores = scorer.score(corpus)
    assert np.array_equal(top.indices, np.argsort(-scores, kind="stable")[:5])
    assert np.array_equal(top.scores, scores[top.indices])


def test_topk_excludes_invalid_candidates(scorer, subgraph, corpus):
    corrupted = zero_split_factor(corpus[3])
    assert corrupted is not None
    candidates = list(corpus)
    candidates[3] = corrupted
    top = scorer.score_topk(subgraph, candidates, k=len(candidates))
    assert top.n_invalid == 1
    assert top.n_scored == _N - 1
    assert 3 not in top.indices  # the corrupted slot can never be ranked
    assert len(top.indices) == _N - 1
    # indices point into the ORIGINAL list, skipping only the bad slot
    assert set(top.indices.tolist()) == set(range(_N)) - {3}


def test_topk_all_invalid_returns_empty(scorer, subgraph, corpus):
    corrupted = zero_split_factor(corpus[0])
    top = scorer.score_topk(subgraph, [corrupted, corrupted], k=2)
    assert top.n_candidates == 2 and top.n_invalid == 2 and top.n_scored == 0
    assert top.indices.size == 0 and top.scores.size == 0


def test_topk_is_deterministic_across_instances(scorer, featurizer,
                                                subgraph, corpus):
    fresh = CandidateScorer(
        TLPModel(TLPModelConfig(
            emb=featurizer.config.emb, hidden=16, n_heads=2, n_res_blocks=1,
            stream_name="test.scoring.model")).eval(),
        featurizer)
    a = scorer.score_topk(subgraph, corpus, k=7)
    b = fresh.score_topk(subgraph, corpus, k=7)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.scores, b.scores)


def test_propose_topk_round(scorer, subgraph):
    schedules, top = scorer.propose_topk(subgraph, n=12, k=4,
                                         rng=stream("test.scoring.propose"))
    assert len(schedules) == 12
    assert top.n_candidates == 12 and top.n_invalid == 0
    assert len(top.indices) == 4
    # sampler output is verified by construction: score_topk agrees
    rerank = scorer.score_topk(subgraph, schedules, k=4)
    assert np.array_equal(rerank.indices, top.indices)
    assert np.array_equal(rerank.scores, top.scores)


def test_propose_without_generator_fails(scorer, featurizer, subgraph):
    bare = CandidateScorer(scorer.model, featurizer)
    with pytest.raises(ValueError, match="SketchGenerator"):
        bare.propose_topk(subgraph, n=2, k=1, rng=stream("test.scoring.bare"))


def test_k_must_be_positive(scorer, subgraph, corpus):
    with pytest.raises(ValueError, match="k must be"):
        scorer.score_topk(subgraph, corpus, k=0)
    with pytest.raises(ValueError, match="k must be"):
        scorer.propose_topk(subgraph, n=2, k=0, rng=stream("test.scoring.k"))


def test_n_must_be_positive(scorer, subgraph):
    with pytest.raises(ValueError, match="n must be"):
        scorer.propose_topk(subgraph, n=0, k=1, rng=stream("test.scoring.n"))


def test_propose_topk_counts_generator_output_not_request(scorer, subgraph):
    """Regression: n_candidates was hard-coded to the requested n; it must
    report what the generator actually produced so n_scored stays honest."""

    class ShortGenerator:
        def __init__(self, inner):
            self.inner = inner

        def generate_many(self, subgraph, n, rng):
            return self.inner.generate_many(subgraph, n, rng)[: n - 2]

    short = CandidateScorer(scorer.model, scorer.featurizer,
                            ShortGenerator(scorer.generator))
    schedules, top = short.propose_topk(subgraph, n=8, k=3,
                                        rng=stream("test.scoring.short"))
    assert len(schedules) == 6
    assert top.n_candidates == 6  # not the requested 8
    assert top.n_invalid == 0 and top.n_scored == 6
    assert len(top.indices) == 3


# -- draft-then-verify (Pruner-style static screening) -----------------------


def test_draft_keep_one_is_bit_identical_to_full_path(scorer, subgraph):
    _, full = scorer.propose_topk(subgraph, n=_N, k=5,
                                  rng=stream("test.scoring.draft"))
    _, drafted = scorer.propose_topk(subgraph, n=_N, k=5,
                                     rng=stream("test.scoring.draft"),
                                     draft_keep=1.0)
    assert np.array_equal(full.indices, drafted.indices)
    assert np.array_equal(full.scores, drafted.scores)
    assert full.n_predicted == drafted.n_predicted == _N


def test_draft_keep_bounds_model_calls(scorer, subgraph):
    _, top = scorer.propose_topk(subgraph, n=_N, k=3,
                                 rng=stream("test.scoring.draft.half"),
                                 draft_keep=0.5)
    assert top.n_predicted == _N // 2
    assert top.n_candidates == _N and top.n_invalid == 0
    assert len(top.indices) == 3
    # The returned scores are real model scores of the kept candidates.
    assert (top.scores[:-1] >= top.scores[1:]).all()


def test_draft_keep_never_shrinks_below_k(scorer, subgraph):
    _, top = scorer.propose_topk(subgraph, n=6, k=5,
                                 rng=stream("test.scoring.draft.floor"),
                                 draft_keep=0.01)
    assert top.n_predicted == 5  # max(ceil(0.01*6), min(k, n)) = k
    assert len(top.indices) == 5


def test_draft_path_fails_closed_on_an_invalid_candidate(scorer, subgraph):
    """The drafted path skips the generator's verifier pass; the draft's
    raise-mode interpretation is the gate, before anything is scored."""

    class CorruptingGenerator:
        def __init__(self, inner):
            self.inner = inner
            self.config = inner.config
            self.verify_args = []

        def generate_many(self, subgraph, n, rng, *, verify=True):
            self.verify_args.append(verify)
            schedules = self.inner.generate_many(subgraph, n, rng, verify=verify)
            bad = zero_split_factor(schedules[1])
            assert bad is not None
            schedules[1] = Schedule(subgraph, bad, target=schedules[1].target)
            return schedules

    class CountingModel:
        def __init__(self, model):
            self.calls = 0
            self.model = model

        def predict(self, *args, **kwargs):
            self.calls += 1
            return self.model.predict(*args, **kwargs)

    gen = CorruptingGenerator(scorer.generator)
    model = CountingModel(scorer.model)
    drafted = CandidateScorer(model, scorer.featurizer, gen)
    with pytest.raises(AbsIntError):
        drafted.propose_topk(subgraph, n=8, k=3, rng=stream("test.scoring.draft.gate"),
                             draft_keep=0.5)
    assert gen.verify_args == [False] and model.calls == 0


def test_draft_keep_validation(scorer, subgraph):
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="draft_keep"):
            scorer.propose_topk(subgraph, n=4, k=2,
                                rng=stream("test.scoring.draft.bad"),
                                draft_keep=bad)


def test_n_predicted_tracks_valid_subset_in_score_topk(scorer, subgraph, corpus):
    top = scorer.score_topk(subgraph, corpus, k=5)
    assert top.n_predicted == _N
    corrupted = zero_split_factor(corpus[0])
    mixed = [corrupted if corrupted is not None else corpus[0], *corpus[1:]]
    top = scorer.score_topk(subgraph, mixed, k=5)
    assert top.n_predicted == top.n_scored == _N - top.n_invalid
