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

from batch_reference import first_failure, reference_draft_scores
from corruptions import CORRUPTIONS, zero_split_factor
from repro.analysis import assert_valid_many
from repro.analysis import batch as batch_module
from repro.analysis.absint import AbsIntError, Interpreter
from repro.analysis.diagnostics import InvalidScheduleError
from repro.core import (
    CandidateScorer,
    PostprocessConfig,
    ScoredTopK,
    TLPFeaturizer,
    TLPModel,
    TLPModelConfig,
    reference_transform,
)
from repro.tensorir import Schedule, SketchConfig, SketchGenerator, matmul_subgraph
from repro.tensorir import primitives as P
from repro.tensorir.networks import NETWORK_POOLS
from repro.tensorir.sampler import ScheduleSampler
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


@pytest.mark.parametrize("bad", [0, -3, 2.7, 1.0, True, False, "8", None])
def test_max_chunk_is_checked_at_construction(scorer, bad):
    """A bad ``max_chunk`` fails at the boundary, not inside ``predict``
    after a whole batch was sampled and gated, and is never truncated."""
    with pytest.raises(ValueError, match="max_chunk"):
        CandidateScorer(scorer.model, scorer.featurizer, max_chunk=bad)


def test_max_chunk_takes_any_int():
    model = TLPModel(TLPModelConfig(hidden=8, n_heads=2, n_res_blocks=1))
    featurizer = TLPFeaturizer().fit([(P.split("i", 8, (2,)),)])
    for good in (1, 7, np.int64(3)):
        chunk = CandidateScorer(model, featurizer, max_chunk=good).max_chunk
        assert chunk == good and type(chunk) is int


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
            self.config = inner.config

        def generate_many(self, subgraph, n, rng, *, verify=True):
            return self.inner.generate_many(subgraph, n, rng, verify=verify)[: n - 2]

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


# -- propose_topk on the batch pass --------------------------------------------


def _reference_propose(scorer, subgraph, n, k, rng, draft_keep):
    """``propose_topk`` as verified ``generate_many`` → the naive
    per-primitive encoder → ``predict``, the draft over applied nests."""
    gen = scorer.generator
    if draft_keep is None:
        schedules = gen.generate_many(subgraph, n, rng)
        kept = np.arange(len(schedules), dtype=np.int64)
    else:
        schedules = gen.generate_many(subgraph, n, rng, verify=False)
        draft = reference_draft_scores(subgraph, schedules, gen.config.target)
        n_keep = max(int(np.ceil(draft_keep * len(schedules))), min(k, len(schedules)))
        kept = np.sort(np.argsort(-draft, kind="stable")[:n_keep])
    X, mask = reference_transform(scorer.featurizer, [schedules[i] for i in kept])
    scores = scorer.model.predict(X, mask, max_chunk=scorer.max_chunk)
    order = np.argsort(-scores, kind="stable")[:k]
    return schedules, ScoredTopK(kept[order], scores[order], len(schedules), 0, len(kept))


_PROPOSE_SUBGRAPHS = {
    "cpu": NETWORK_POOLS["resnet18"].subgraphs[1],
    "gpu": NETWORK_POOLS["bert_tiny"].subgraphs[0],
}


def _propose_corpus():
    """The propose scorers' featurizer fit corpus, both targets."""
    return [s for target, sg in _PROPOSE_SUBGRAPHS.items()
            for s in SketchGenerator(SketchConfig(target)).generate_many(
                sg, 32, stream(f"test.scoring.batch.fit.{target}"))]


@pytest.fixture(scope="module")
def propose_scorers():
    """One scorer per target, its featurizer fitted on both targets."""
    featurizer = TLPFeaturizer(PostprocessConfig()).fit(_propose_corpus())
    model = TLPModel(TLPModelConfig(emb=featurizer.config.emb, hidden=16, n_heads=2,
                                    n_res_blocks=1, stream_name="test.scoring.batch")).eval()
    return {target: CandidateScorer(model, featurizer, SketchGenerator(SketchConfig(target)),
                                    max_chunk=64)
            for target in _PROPOSE_SUBGRAPHS}


@pytest.mark.parametrize("draft_keep", [None, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize("target", ["cpu", "gpu"])
def test_propose_topk_is_the_verified_composition_byte_for_byte(
        propose_scorers, target, n, draft_keep):
    """Samples, picks, scores and counts equal the per-candidate
    composition's, and the rng ends where it left it, round after round on
    one scorer (the later rounds reuse the held interpreter runs)."""
    scorer = propose_scorers[target]
    subgraph = _PROPOSE_SUBGRAPHS[target]
    for r in range(2):
        name = f"test.scoring.batch.{target}.{n}.{draft_keep}.{r}"
        rng, ref_rng = stream(name), stream(name)
        schedules, top = scorer.propose_topk(subgraph, n, 5, rng, draft_keep=draft_keep)
        ref_schedules, ref = _reference_propose(scorer, subgraph, n, 5, ref_rng, draft_keep)
        assert [s.primitives for s in schedules] == [s.primitives for s in ref_schedules]
        assert top.indices.dtype == ref.indices.dtype and top.scores.dtype == ref.scores.dtype
        assert top.indices.tobytes() == ref.indices.tobytes()
        assert top.scores.tobytes() == ref.scores.tobytes()
        assert ((top.n_candidates, top.n_invalid, top.n_predicted)
                == (ref.n_candidates, ref.n_invalid, ref.n_predicted))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_scorers_over_one_featurizer_share_one_buffer_pair(monkeypatch, propose_scorers):
    """A cpu and a gpu scorer over one featurizer write one grow-only
    ``X``/``mask`` pair, and their interleaved rounds pick, byte for byte,
    what fresh scorers over a fresh featurizer pick."""
    model = propose_scorers["cpu"].model
    corpus = _propose_corpus()

    def scorer(featurizer, target):
        return CandidateScorer(model, featurizer, SketchGenerator(SketchConfig(target)),
                               max_chunk=64)

    shared = TLPFeaturizer(PostprocessConfig()).fit(corpus)
    scorers = {target: scorer(shared, target) for target in _PROPOSE_SUBGRAPHS}
    buffers = []
    transform_into = TLPFeaturizer.transform_into

    def recording(self, sequences, X, mask):
        if self is shared:
            buffers.append((X, mask))
        return transform_into(self, sequences, X, mask)

    monkeypatch.setattr(TLPFeaturizer, "transform_into", recording)
    rounds = [("cpu", 300, None), ("gpu", 7, None), ("cpu", 40, 0.5),
              ("gpu", 300, 0.5), ("gpu", 1, None), ("cpu", 64, None)]
    for r, (target, n, draft_keep) in enumerate(rounds):
        subgraph = _PROPOSE_SUBGRAPHS[target]
        name = f"test.scoring.shared.{r}"
        schedules, top = scorers[target].propose_topk(subgraph, n, 5, stream(name),
                                                      draft_keep=draft_keep)
        fresh = scorer(TLPFeaturizer(PostprocessConfig()).fit(corpus), target)
        ref_schedules, ref = fresh.propose_topk(subgraph, n, 5, stream(name),
                                                draft_keep=draft_keep)
        assert [s.primitives for s in schedules] == [s.primitives for s in ref_schedules]
        assert top.indices.tobytes() == ref.indices.tobytes()
        assert top.scores.tobytes() == ref.scores.tobytes()
        assert top.n_predicted == ref.n_predicted
    assert len(buffers) == len(rounds)
    assert all(X is shared._X and mask is shared._mask for X, mask in buffers)
    assert shared._X.shape == (300, shared.config.seq_len, shared.config.emb)


@pytest.mark.parametrize("draft_keep", [None, 0.5])
def test_propose_topk_gates_raise_what_the_composition_raised(
        monkeypatch, scorer, subgraph, draft_keep):
    """An invalid sample raises before ``predict``: on the default path the
    verifier's ``InvalidScheduleError`` (what the ``generate_many`` gate
    raised), on the drafted path the first invalid candidate's
    ``AbsIntError`` (what ``absint.draft_scores`` raised)."""

    class CountingModel:
        def __init__(self, model):
            self.calls = 0
            self.model = model

        def predict(self, *args, **kwargs):
            self.calls += 1
            return self.model.predict(*args, **kwargs)

    model = CountingModel(scorer.model)
    gated = CandidateScorer(model, scorer.featurizer, SketchGenerator(SketchConfig("cpu")))
    base = gated.generator.generate_many(subgraph, 6, stream("test.scoring.gate.base"))
    n_cases = 0
    for _code, _name, mutator in CORRUPTIONS:
        for k in (0, 3):
            bad = mutator(base[k])
            if bad is None:
                continue
            n_cases += 1
            batch = [*base, base[k]]  # the clean one first of its key
            batch[k] = batch[-1] = Schedule(subgraph, bad, "cpu")
            if draft_keep is None:
                with pytest.raises(InvalidScheduleError) as want:
                    assert_valid_many(batch)
            else:
                want = pytest.raises(AbsIntError)
                want.value = first_failure(subgraph, batch, "cpu")[1]
            queue = iter(batch)
            monkeypatch.setattr(ScheduleSampler, "sample", lambda self, sg, rng: next(queue))
            with pytest.raises(type(want.value)) as got:
                gated.propose_topk(subgraph, len(batch), 3, stream("test.scoring.gate"),
                                   draft_keep=draft_keep)
            monkeypatch.undo()
            assert str(got.value) == str(want.value)
            for field in ("diagnostics", "code", "step"):
                assert getattr(got.value, field, None) == getattr(want.value, field, None)
    assert n_cases >= 16 and model.calls == 0


def test_a_repeated_proposal_interprets_no_key_again(monkeypatch, scorer, subgraph):
    runs = []
    profile = Interpreter.profile

    def counting(self, primitives, ops=None):
        runs.append(ops is not None)
        return profile(self, primitives, ops)

    monkeypatch.setattr(Interpreter, "profile", counting)
    fresh = CandidateScorer(scorer.model, scorer.featurizer, scorer.generator)
    first = fresh.propose_topk(subgraph, 64, 4, stream("test.scoring.held"))[1]
    assert sum(runs) == len(fresh._plans) > 0
    runs.clear()
    again = fresh.propose_topk(subgraph, 64, 4, stream("test.scoring.held"))[1]
    assert sum(runs) == 0
    assert again.indices.tobytes() == first.indices.tobytes()
    assert again.scores.tobytes() == first.scores.tobytes()


def test_a_scorer_keeps_at_most_plans_held(monkeypatch, scorer):
    monkeypatch.setattr(batch_module, "PLANS_HELD", 6)
    fresh = CandidateScorer(scorer.model, scorer.featurizer, scorer.generator)
    sizes = []
    for sg in NETWORK_POOLS["resnet18"].subgraphs[:5]:
        fresh.propose_topk(sg, 48, 3, stream(f"test.scoring.held.{sg.name}"),
                           draft_keep=0.5)
        sizes.append(len(fresh._plans))
    assert max(sizes) == 6
