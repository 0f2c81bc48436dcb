"""End-to-end candidate scoring: the search-side serving loop.

:class:`CandidateScorer` pipes the pieces the evolutionary-search PRs
will drive, in the exact order a tuning round needs them.  A proposal
round (:meth:`CandidateScorer.propose_topk`) runs on one batch pass:

    ``SketchGenerator.generate_many(..., verify=False)`` (propose)
    → ``repro.analysis.batch.BatchProfile`` (the fail-closed gate: one
      interpreter run per structural key, kept across the scorer's
      rounds, the rest as integer columns; the draft scores, when
      drafting)
    → ``TLPFeaturizer.transform_into`` (encoded on the gate's grouping)
    → ``TLPModel.predict`` (tape-free fused inference)
    → top-k indices (highest predicted ``min_latency / latency`` first)

External candidates (e.g. mutation output, :meth:`CandidateScorer.score_topk`)
go ``repro.analysis.verify_many`` → ``TLPFeaturizer.transform`` →
``TLPModel.predict`` → top-k instead.

Only *verified* candidates are ever scored: proposals pass the batch
pass's raise mode — the verifier's interpreter — before anything is
featurized, and externally supplied candidates are screened with
``verify_many`` — invalid sequences are excluded from scoring and
reported, never silently ranked.

Throughput is the design axis (the paper's §6 observation: inference,
not training, dominates search time); ``benchmarks/bench_inference.py``
and ``BENCH_nn_inference.json`` record the candidates/sec this loop
sustains.  ``python -m repro.core.scoring`` runs a ~2 s smoke of the
whole loop (wired into ``make check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from repro.analysis import verifier
from repro.analysis.batch import BatchProfile
from repro.analysis.diagnostics import errors
from repro.analysis.verifier import verify_many
from repro.core.extractor import SequenceLike, TLPFeaturizer, _primitives_of
from repro.core.tlp_model import TLPModel
from repro.tensorir.schedule import Schedule
from repro.tensorir.sketch import SketchGenerator
from repro.tensorir.subgraph import Subgraph


def _require_positive(name: str, value: int) -> int:
    """Shared ``k``/``n`` validation so both scoring paths agree."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class ScoredTopK:
    """Result of one scoring round.

    ``indices`` point into the *original* candidate list (best first),
    so callers keep their own bookkeeping; invalid candidates can never
    appear in ``indices``.
    """

    indices: np.ndarray      #: int64 [k] — positions of the top-k candidates
    scores: np.ndarray       #: float32 [k] — their predicted scores, descending
    n_candidates: int        #: how many candidates were submitted
    n_invalid: int           #: how many failed static verification
    n_predicted: int         #: how many reached ``TLPModel.predict``

    @property
    def n_scored(self) -> int:
        return self.n_candidates - self.n_invalid


class CandidateScorer:
    """Scores schedule candidates with the TLP model, serving-style.

    Its collaborators are a *fitted* :class:`TLPFeaturizer` (vocabulary
    must match the model's training run) and a :class:`TLPModel`.
    ``max_chunk``, an int >= 1, bounds the inference scratch footprint
    per ``TLPModel.predict``.  Its one state is the gate's table of
    per-key interpreter runs (``BatchProfile``'s ``plans``), which
    :meth:`propose_topk` keeps across rounds: keyed by content (the
    subgraph's axis names and reduction flags, the target and the
    structural key), capped at ``repro.analysis.batch.PLANS_HELD``.
    """

    def __init__(self, model: TLPModel, featurizer: TLPFeaturizer,
                 generator: SketchGenerator | None = None, *,
                 max_chunk: int = 128):
        if not featurizer.is_fitted:
            raise ValueError(
                "CandidateScorer needs a fitted TLPFeaturizer — fit() it on "
                "the training corpus (the vocabulary the model was trained on)")
        if not (isinstance(max_chunk, Integral) and not isinstance(max_chunk, bool)
                and max_chunk >= 1):
            raise ValueError(
                f"CandidateScorer.max_chunk must be an int >= 1, got {max_chunk!r}")
        self.model = model
        self.featurizer = featurizer
        self.generator = generator
        self.max_chunk = int(max_chunk)
        self._plans: dict = {}
        self._X = self._mask = np.empty(0, dtype=np.float32)

    # -- scoring ---------------------------------------------------------

    def score(self, candidates: Sequence[SequenceLike]) -> np.ndarray:
        """Predicted scores for already-verified candidates (float32 [N]).

        Higher is better (the model regresses ``min_latency / latency``).
        This is the trusted-input path — sampler output is verified
        fail-closed at generation; use :meth:`score_topk` for anything
        of unknown validity.
        """
        X, mask = self.featurizer.transform(candidates)
        return self.model.predict(X, mask, max_chunk=self.max_chunk)

    def score_topk(self, subgraph: Subgraph, candidates: Sequence[SequenceLike],
                   k: int, target: str = "cpu") -> ScoredTopK:
        """Verify, featurize, score, and rank external candidates.

        Candidates failing static verification are dropped before
        featurization (they would poison the ranking — DESIGN.md §8) and
        counted in ``n_invalid``.  Returns the top-``k`` valid candidates
        by descending score; ties break toward the earlier index so the
        ranking is deterministic.
        """
        k = _require_positive("k", k)
        sequences = [_primitives_of(c) for c in candidates]
        diagnostics = verify_many(subgraph, sequences, target, stop_on_error=True)
        valid = [i for i, diags in enumerate(diagnostics) if not errors(diags)]
        n_invalid = len(sequences) - len(valid)
        if not valid:
            return ScoredTopK(np.empty(0, dtype=np.int64),
                              np.empty(0, dtype=np.float32),
                              len(sequences), n_invalid, 0)
        scores = self.score([sequences[i] for i in valid])
        order = np.argsort(-scores, kind="stable")[:k]
        return ScoredTopK(
            indices=np.asarray([valid[i] for i in order], dtype=np.int64),
            scores=scores[order],
            n_candidates=len(sequences),
            n_invalid=n_invalid,
            n_predicted=len(valid),
        )

    # -- propose-and-score (the search inner loop) -----------------------

    def _buffers(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Grow-only ``X``/``mask`` buffers for :meth:`propose_topk`'s
        ``transform_into``, rewritten round after round: a fresh ~2 MB
        pair a round pays its page faults again, and read ~2 MB more
        peak RSS in perfbench ``search`` (heap churn)."""
        if self._X.shape[0] < n:
            cfg = self.featurizer.config
            self._X = np.empty((n, cfg.seq_len, cfg.emb), dtype=np.float32)
            self._mask = np.empty((n, cfg.seq_len), dtype=np.float32)
        return self._X, self._mask

    def propose_topk(self, subgraph: Subgraph, n: int, k: int,
                     rng: np.random.Generator, *,
                     draft_keep: float | None = None,
                     ) -> tuple[list[Schedule], ScoredTopK]:
        """Sample ``n`` fresh candidates and return them with their top-k.

        One batch pass carries the round.  The generator's samples are
        gated fail-closed by ``repro.analysis.batch.BatchProfile`` — one
        interpreter run per structural key not met in an earlier round of
        this scorer, the rest as integer columns — and featurized on its
        grouping (``TLPFeaturizer.transform_into``); the profile is
        released before ``TLPModel.predict``.  Scores, picks and errors
        are those of verified ``generate_many`` → ``transform`` →
        ``predict``: an invalid sample raises ``InvalidScheduleError``
        (``verifier.assert_valid_many`` rechecks the batch) before
        anything is scored, and the returned ``ScoredTopK`` has
        ``n_invalid == 0``.

        ``draft_keep`` enables the Pruner-style draft-then-verify path:
        every candidate gets a cheap static draft score from the same
        profile (``BatchProfile.draft_scores``, what
        ``absint.draft_scores`` computes — the analytical ``simhw`` cost
        of the abstract nest, no learned model), and only the best
        ``ceil(draft_keep * n)`` reach ``TLPModel.predict``.  The draft
        slice is scored in original candidate order, so on the kept
        subset the ranking (including stable tie-breaks) is exactly what
        the full path would produce; ``draft_keep=1.0`` is bit-identical
        to the default path.  ``n_predicted`` records how many candidates
        the model actually saw.  On this path the draft's raise-mode
        interpretation is the gate, so an invalid candidate raises
        ``AbsIntError``, as ``absint.draft_scores`` does.
        """
        if self.generator is None:
            raise ValueError("propose_topk needs a SketchGenerator at construction")
        n = _require_positive("n", n)
        k = _require_positive("k", k)
        if draft_keep is not None and not 0.0 < draft_keep <= 1.0:
            raise ValueError(f"draft_keep must be in (0, 1], got {draft_keep}")
        # Unverified: the batch pass below is this round's gate.
        schedules = self.generator.generate_many(subgraph, n, rng, verify=False)
        # A flagged batch is rechecked one candidate at a time: by the
        # verifier on the default path (its InvalidScheduleError, as the
        # generate_many gate raised), by BatchProfile's own absint.profile
        # loop when drafting (its AbsIntError, as draft_scores raised).
        recheck = (lambda: verifier.assert_valid_many(schedules)) if draft_keep is None else None
        batch = BatchProfile(subgraph, schedules, self.generator.config.target, recheck,
                             self._plans)
        kept = np.arange(len(schedules), dtype=np.int64)
        if draft_keep is not None:
            draft = batch.draft_scores()
            # Never keep fewer than k (or everything, when n < k): the
            # draft screens, it must not shrink the answer.
            n_keep = max(int(np.ceil(draft_keep * len(schedules))),
                         min(k, len(schedules)))
            # Ascending original order within the kept slice keeps the
            # model path's stable tie-break identical to the full path.
            kept = np.sort(np.argsort(-draft, kind="stable")[:n_keep])
        X, mask = self.featurizer.transform_into(batch.groups, *self._buffers(len(schedules)))
        del batch  # free its planes and columns before predict's peak
        if len(kept) < len(schedules):
            X, mask = X[kept], mask[kept]
        scores = self.model.predict(X, mask, max_chunk=self.max_chunk)
        order = np.argsort(-scores, kind="stable")[:k]
        # n_candidates reports what the generator actually produced, not
        # the requested n — keeps n_scored honest if a generator ever
        # over- or under-delivers.
        top = ScoredTopK(indices=kept[order], scores=scores[order],
                         n_candidates=len(schedules), n_invalid=0,
                         n_predicted=len(kept))
        return schedules, top


def _smoke(batch: int = 256, k: int = 8) -> dict[str, float]:
    """A ~2 s end-to-end inference smoke (``make check`` runs this).

    Generates a small candidate batch, scores it through the full
    serving loop, and asserts the fast path bit-identical to the taped
    eval-mode forward on the featurized batch, at the smoke model's
    geometry and at the default ``TLPModelConfig()``.
    """
    from repro.core.extractor import TLPFeaturizer as _Featurizer
    from repro.core.postprocess import PostprocessConfig
    from repro.core.tlp_model import TLPModelConfig
    from repro.tensorir.sketch import SketchConfig
    from repro.tensorir.subgraph import matmul_subgraph
    from repro.utils.rng import stream
    from repro.utils.timer import Timer

    gen = SketchGenerator(SketchConfig("cpu"))
    subgraph = matmul_subgraph(128, 128, 128)
    corpus = gen.generate_many(subgraph, batch, stream("scoring.smoke"))
    featurizer = _Featurizer(PostprocessConfig()).fit(corpus)
    model = TLPModel(TLPModelConfig(emb=featurizer.config.emb, hidden=64,
                                    n_heads=4, n_res_blocks=2,
                                    stream_name="scoring.smoke.model")).eval()
    scorer = CandidateScorer(model, featurizer, gen)

    with Timer() as t:
        schedules, top = scorer.propose_topk(subgraph, batch, k,
                                             stream("scoring.smoke.propose"))
    X, mask = featurizer.transform(schedules)
    # The smoke geometry, then the default Fig. 7 one (hidden 256, 8
    # heads) that search serves.
    default = TLPModel(TLPModelConfig(emb=featurizer.config.emb)).eval()
    for m in (model, default):
        if not np.array_equal(m(X, mask).data, m.predict(X, mask)):
            raise AssertionError(
                f"predict() is not bit-identical to taped forward at {m.config}")
    if len(top.indices) != k or top.n_invalid != 0:
        raise AssertionError(f"unexpected top-k result: {top}")
    return {"candidates": float(batch),
            "seconds": t.elapsed,
            "candidates_per_sec": batch / t.elapsed}


def main() -> int:
    stats = _smoke()
    print("inference smoke OK: "
          f"{stats['candidates']:.0f} candidates end-to-end in "
          f"{stats['seconds']*1e3:.0f} ms "
          f"({stats['candidates_per_sec']:.0f} candidates/sec), "
          "predict bit-identical to taped forward at hidden 64 and 256")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = ["CandidateScorer", "ScoredTopK"]
