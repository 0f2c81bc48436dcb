"""Batch-throughput-first TLP feature extraction (Fig. 4/5).

Turns schedule-primitive sequences into the fixed-size float32 tensors
the TLP cost model consumes, *without* lowering to a tensor program —
the mechanism behind the paper's Figure 10 pipeline-speed claim.  The
canonical per-primitive triple (one-hot kind ++ char tokens ++ raw
numerics) comes from ``repro.core.abstract_primitive``; the Table 4
``seq_len x emb`` geometry from ``repro.core.postprocess``.

One encoder, :meth:`TLPFeaturizer.transform_into`, serves every caller
(``transform`` is it over fresh arrays).  It is built for the batches
search and the dataset build make — thousands of candidates, a handful
of structures:

* The batch is encoded by structural group
  (``repro.analysis.batch.CandidateGroups``): each group's rows are
  written once, gathered into every member's slot, and the members'
  ints — all that differs inside a group — are scattered into their
  numeric slots.
* Encoding is fused with the Table 4 crop: rows are materialized at
  ``emb`` width, never at the raw corpus-wide width.
* Per-primitive rows are memoized (``Primitive`` is frozen/hashable, and
  split/annotate steps repeat massively across a task's candidates), so
  a group's rows cost one dict probe + one 22-float copy per primitive.

``repro.core.extractor_reference`` keeps the deliberately naive
per-primitive implementation as the correctness oracle (property tests
pin bit-identical output) and the benchmark baseline.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from repro.analysis.batch import CandidateGroups
from repro.core.abstract_primitive import N_KINDS, abstract, char_params
from repro.core.postprocess import PostprocessConfig
from repro.tensorir.primitives import Primitive
from repro.tensorir.schedule import Schedule

#: Reserved character-token ids: 0 pads, 1 marks characters unseen at fit
#: time.  Real characters are numbered from 2, in sorted order.
PAD_ID = 0
UNK_ID = 1
_FIRST_CHAR_ID = 2

#: One featurizable sequence: a schedule or a bare primitive tuple.
SequenceLike = Union[Schedule, Sequence[Primitive]]


def _numeric_start(prim: Primitive) -> int:
    """Where a primitive's ints start in its feature row: after the
    one-hot kind and one slot per character parameter."""
    return N_KINDS + len(char_params(prim))


def _primitives_of(seq: SequenceLike) -> tuple[Primitive, ...]:
    if isinstance(seq, Schedule):
        return seq.primitives
    return tuple(seq)


class TLPFeaturizer:
    """Vocabulary-fitted, batch-first schedule-sequence featurizer.

    ``fit`` scans a corpus once to build the character vocabulary and the
    raw (pre-crop) feature-row width; ``transform`` then encodes any
    batch of sequences into ``(X: float32 [N, seq_len, emb], mask:
    float32 [N, seq_len])``.  Fitted state lives in ``vocab_``,
    ``raw_width_`` and ``kind_widths_`` (per-kind max row width — the
    Table 1 statistic).
    """

    def __init__(self, config: PostprocessConfig | None = None):
        self.config = config or PostprocessConfig()
        self.vocab_: dict[str, int] | None = None
        self.raw_width_: int | None = None
        self.kind_widths_: dict[str, int] = {}
        self._row_memo: dict[Primitive, np.ndarray] = {}
        self._rows_encoded = 0
        self._X = self._mask = np.empty(0, dtype=np.float32)

    # -- fitting --------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self.vocab_ is not None

    def fit(self, corpus: Iterable[SequenceLike]) -> "TLPFeaturizer":
        """Build the char vocabulary and row geometry from a corpus."""
        chars: set[str] = set()
        max_payload = 0
        kind_widths: dict[str, int] = {}
        n_sequences = 0
        for seq in corpus:
            n_sequences += 1
            for prim in _primitives_of(seq):
                ap = abstract(prim)
                chars.update(ap.chars)
                max_payload = max(max_payload, ap.payload_length)
                kind = prim.kind.value
                kind_widths[kind] = max(
                    kind_widths.get(kind, 0), N_KINDS + ap.payload_length
                )
        if n_sequences == 0:
            raise ValueError("TLPFeaturizer.fit needs a non-empty corpus")
        self.vocab_ = {c: i for i, c in enumerate(sorted(chars), start=_FIRST_CHAR_ID)}
        self.raw_width_ = N_KINDS + max_payload
        self.kind_widths_ = kind_widths
        self.cache_clear()
        return self

    # -- transform ------------------------------------------------------

    def transform(self, sequences: Sequence[SequenceLike]) -> tuple[np.ndarray, np.ndarray]:
        """Encode a batch into fresh ``(X [N, seq_len, emb], mask [N,
        seq_len])`` arrays: :meth:`transform_into` over new buffers.

        Deterministic for a fixed fit.
        """
        if not self.is_fitted:
            raise RuntimeError("TLPFeaturizer.transform called before fit()")
        cfg = self.config
        X = np.empty((len(sequences), cfg.seq_len, cfg.emb), dtype=np.float32)
        mask = np.empty((len(sequences), cfg.seq_len), dtype=np.float32)
        self.transform_into(sequences, X, mask)
        return X, mask

    def transform_into(
        self,
        sequences: "Sequence[SequenceLike] | CandidateGroups",
        X: np.ndarray,
        mask: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode a batch into caller-provided ``X``/``mask`` buffers.

        The same two tensors can be rewritten batch after batch (the
        dataset shard writer, a scorer's proposal rounds).  The batch is
        encoded by structural group (``repro.analysis.batch.CandidateGroups``;
        pass the grouping the static pass already made, or sequences to
        group here): each group's rows are written once, from the row
        memo, then gathered into every member's slot, and the members'
        ints — all that differs inside a group — are scattered into their
        numeric slots.  Output is bit-identical to
        ``repro.core.reference_transform`` over the same sequences.

        ``X`` must be float32 ``[cap, seq_len, emb]`` and ``mask``
        float32 ``[cap, seq_len]`` with ``cap >= len(sequences)``; the
        written views ``X[:n], mask[:n]`` are returned.
        """
        if not self.is_fitted:
            raise RuntimeError("TLPFeaturizer.transform_into called before fit()")
        cfg = self.config
        n = len(sequences)
        if X.shape[1:] != (cfg.seq_len, cfg.emb) or X.shape[0] < n:
            raise ValueError(
                f"X buffer has shape {X.shape}, need [>= {n}, {cfg.seq_len}, {cfg.emb}]"
            )
        if mask.shape[1:] != (cfg.seq_len,) or mask.shape[0] < n:
            raise ValueError(
                f"mask buffer has shape {mask.shape}, need [>= {n}, {cfg.seq_len}]"
            )
        if X.dtype != np.float32 or mask.dtype != np.float32:
            raise ValueError(
                f"buffers must be float32, got X={X.dtype}, mask={mask.dtype}"
            )
        groups = CandidateGroups.of(sequences)
        seq_len, emb = cfg.seq_len, cfg.emb
        n_groups = len(groups.first)
        templates = np.zeros((n_groups, seq_len, emb), dtype=np.float32)
        lengths = np.empty(n_groups, dtype=np.intp)
        slot_cols: list[list[int]] = []
        slot_at: list[list[int]] = []
        for g, first in enumerate(groups.first):
            prims = groups.sequences[first]
            lengths[g] = self._encode_into(templates[g], prims)
            cols, at = [], []
            col = 0
            for j, prim in enumerate(prims[: lengths[g]]):
                start = _numeric_start(prim)
                for t in range(min(len(prim.ints), emb - start)):
                    cols.append(col + t)
                    at.append(j * emb + start + t)
                col += len(prim.ints)
            slot_cols.append(cols)
            slot_at.append(at)
        gof = groups.group_of
        np.take(templates, gof, axis=0, out=X[:n])
        np.less(np.arange(seq_len), lengths[gof][:, None], out=mask[:n], casting="unsafe")
        # Every member's ints into its numeric slots, in one scatter.
        width = max(map(len, slot_cols), default=0)
        cols_table = np.zeros((n_groups, width), dtype=np.intp)
        at_table = np.zeros((n_groups, width), dtype=np.intp)
        for g in range(n_groups):
            cols_table[g, : len(slot_cols[g])] = slot_cols[g]
            at_table[g, : len(slot_at[g])] = slot_at[g]
        counts = np.asarray(list(map(len, slot_cols)), dtype=np.intp)[gof]
        member = np.repeat(np.arange(n), counts)
        k = np.arange(len(member)) - np.repeat(np.cumsum(counts) - counts, counts)
        gm = gof[member]
        at = at_table[gm, k]
        values = np.array(groups.values, dtype=np.float32)
        X[member, at // emb, at % emb] = values[groups.offsets[member] + cols_table[gm, k]]
        return X[:n], mask[:n]

    def _buffers(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The grow-only ``X``/``mask`` pair that every scorer over this
        featurizer rewrites round after round
        (``CandidateScorer.propose_topk``).  A fresh ~2 MB pair a round
        would pay its page faults again (perfbench ``search`` read ~2 MB
        more peak RSS), and a pair per scorer would hold one copy more."""
        if self._X.shape[0] < n:
            cfg = self.config
            self._X = np.empty((n, cfg.seq_len, cfg.emb), dtype=np.float32)
            self._mask = np.empty((n, cfg.seq_len), dtype=np.float32)
        return self._X, self._mask

    def _encode_into(self, out: np.ndarray, prims: tuple[Primitive, ...]) -> int:
        length = min(len(prims), self.config.seq_len)
        memo = self._row_memo
        for j in range(length):
            prim = prims[j]
            row = memo.get(prim)
            if row is None:
                row = self._encode_row(prim)
                memo[prim] = row
            out[j] = row
        return length

    def _encode_row(self, prim: Primitive) -> np.ndarray:
        """One primitive's feature row, crop fused in (width = ``emb``):
        the one-hot kind, the char tokens, then the ints from
        :func:`_numeric_start` on."""
        emb = self.config.emb
        vocab = self.vocab_
        self._rows_encoded += 1
        row = np.zeros(emb, dtype=np.float32)
        ap = abstract(prim)
        if ap.kind_index < emb:
            row[ap.kind_index] = 1.0
        for pos, ch in enumerate(ap.chars[: max(emb - N_KINDS, 0)], start=N_KINDS):
            row[pos] = vocab.get(ch, UNK_ID)
        start = _numeric_start(prim)
        for pos, value in enumerate(ap.numerics[: max(emb - start, 0)], start=start):
            row[pos] = value
        return row

    # -- cache introspection --------------------------------------------

    def cache_info(self) -> dict[str, int]:
        """Size of the per-primitive row memo, and ``rows_encoded``: the
        row materializations (memo misses) since the last fit or
        :meth:`cache_clear` — the allocation count the zero-alloc
        shard-writer tests pin."""
        return {"row_memo_size": len(self._row_memo), "rows_encoded": self._rows_encoded}

    def cache_clear(self) -> None:
        """Drop the per-primitive row memo and reset ``rows_encoded``.

        The memo is unbounded — a long dataset generation run visits
        ever-new split factors, so the shard pipeline calls this between
        task batches to keep steady-state memory flat.  The fitted
        vocabulary is untouched, so later encodes stay bit-identical.
        """
        self._row_memo.clear()
        self._rows_encoded = 0


__all__ = ["PAD_ID", "UNK_ID", "SequenceLike", "TLPFeaturizer"]
