"""The TLP attention cost model (paper Fig. 7), first slice.

The backbone consumes ``TLPFeaturizer.transform`` output directly: the
``[N, seq_len, emb]`` feature block and its ``[N, seq_len]`` padding
mask.  Per Fig. 7 the rows are linearly up-sampled from the ``emb``
width to the model width, mixed once by multi-head self-attention
(padded rows masked out of the softmax), refined by a stack of
dimension-preserving residual blocks, summed over the sequence axis
(padding zeroed so pad rows contribute nothing), and projected to one
latency score per schedule.

One trunk serves training and serving: it computes only the rows whose
mask is non-zero (:class:`~repro.nn.functional.PackedRows`), each layer
by its one forward, the packed kernel of :mod:`repro.nn.functional`.
Its row-wise prefix — ``up1``, ``up2`` and the attention's q/k/v
projections — reads nothing but a row's features, so it runs once per
distinct feature row (:class:`~repro.nn.functional.DistinctRows`), and
the rest of the trunk gathers its rows from the prefix tables.

* :meth:`TLPModel.forward` (:meth:`TLPModel.pool_features`) runs the
  prefix and the rest over the whole batch, then the score head; with
  grad enabled each layer records one tape node over the kept rows,
  with a hand-written backward (the rules: :mod:`repro.nn.functional`).
* :meth:`TLPModel.predict` (:meth:`TLPModel.pool_chunks`) runs the
  prefix once over the whole batch and the rest chunk by chunk, into the
  model's persistent :class:`~repro.nn.functional.ScratchArena`, then
  the head once over the whole batch.  It matches eval-mode ``forward``
  because both run the same code on rows whose GEMM bytes do not depend
  on the call (``tests/test_blas_rows.py``), and allocates no large
  buffer in steady state, whatever the masks.

``repro.core.mtl`` hangs per-platform heads off the same trunk, and
``repro.core.trainer`` drives both variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, LayerNorm, Linear, ResidualBlock, masked_sum_pool
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import stream


@dataclass(frozen=True)
class TLPModelConfig:
    """Fig. 7 hyperparameters.

    Defaults follow the paper's CPU configuration (embedding width from
    Table 4, hidden width 256, 8 heads, 2 residual blocks); tests use a
    narrower instance for speed.
    """

    emb: int = 22
    hidden: int = 256
    n_heads: int = 8
    n_res_blocks: int = 2
    dropout: float = 0.0
    stream_name: str = "core.tlp_model.init"

    def __post_init__(self) -> None:
        if self.emb < 1:
            raise ValueError(f"emb must be >= 1, got {self.emb}")
        if self.hidden % self.n_heads != 0:
            raise ValueError(
                f"hidden {self.hidden} is not divisible by n_heads {self.n_heads}")
        if self.n_res_blocks < 0:
            raise ValueError(f"n_res_blocks must be >= 0, got {self.n_res_blocks}")


class TLPModel(Module):
    """Fig. 7: up-sample -> self-attention -> residual stack -> sum -> head.

    One generator (derived from ``config.stream_name``) is threaded
    through every submodule in construction order, so the weights are a
    pure function of the config — two models built from equal configs
    are bit-identical.
    """

    def __init__(self, config: TLPModelConfig | None = None):
        config = config if config is not None else TLPModelConfig()
        rng = stream(config.stream_name)
        self.config = config
        mid = max(config.n_heads, config.hidden // 2)
        # Fig. 7's "linear up-sampling": two widening linears with ReLU.
        self.up1 = Linear(config.emb, mid, rng=rng)
        self.up2 = Linear(mid, config.hidden, rng=rng)
        self.attention = MultiHeadSelfAttention(config.hidden, config.n_heads, rng=rng)
        self.norm = LayerNorm(config.hidden)
        self.dropout = Dropout(config.dropout, rng=rng) if config.dropout else None
        self.res_blocks = [ResidualBlock(config.hidden, rng=rng)
                           for _ in range(config.n_res_blocks)]
        self.head = Linear(config.hidden, 1, rng=rng)
        self._arena = F.ScratchArena()

    def _check_geometry(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        if X.ndim != 3 or X.shape[-1] != self.config.emb:
            raise ValueError(
                f"expected features [N, L, {self.config.emb}], got {X.shape}")
        mask = np.asarray(mask, dtype=np.float32)
        if mask.shape != X.shape[:2]:
            raise ValueError(
                f"mask shape {mask.shape} does not match features {X.shape[:2]}")
        return mask

    def pool_features(self, X: np.ndarray | Tensor, mask: np.ndarray) -> Tensor:
        """The shared trunk up to (and including) the sequence-sum pool:
        the ``[N, hidden]`` pooled representation the score heads
        consume.  The feature block is a constant.  Only the kept rows
        are computed, the row-wise prefix once per distinct feature row
        (:meth:`_prefix`), and the attention block scores ``rows.span``
        queries by ``rows.key_width`` keys.  ``up1`` and ``up2`` record
        their tape nodes over the kept rows, gathered from the prefix
        tables, so their backward kernels read what they always read.
        """
        if isinstance(X, Tensor):
            if X.requires_grad:
                raise ValueError("the feature block is a constant; it takes no gradient")
            X = X.data
        mask = self._check_geometry(X, mask)
        rows = F.PackedRows(mask)
        scratch = F.TapeScratch()
        x = rows.gather(scratch, "x", X)
        distinct = F.DistinctRows(scratch, x, rows.n * rows.length)
        up1, up2, *qkv = self._prefix(distinct, scratch)
        h = Tensor(x)
        for layer, name, table in ((self.up1, "up1", up1), (self.up2, "up2", up2)):
            out = rows.gather(scratch, f"{name}.rows", table, distinct.inverse)
            h = layer.track(h, out, rows, relu=True)
        return self._suffix(h, rows, qkv, distinct.inverse)

    def _prefix(self, distinct: F.DistinctRows, scratch: F.Scratch) -> list[np.ndarray]:
        """The trunk's row-wise prefix over the distinct feature rows:
        ``up1``, ``up2`` and the attention's q, k and v projections, each
        a table with one row per distinct row."""
        up1, up2 = self.up1, self.up2
        h1 = F.linear(scratch, "up1", distinct.values, up1.weight.data, up1.bias.data,
                      relu=True, rows=distinct)
        h2 = F.linear(scratch, "up2", h1, up2.weight.data, up2.bias.data,
                      relu=True, rows=distinct)
        return [h1, h2, *self.attention.project(h2, distinct, scratch)]

    def _suffix(self, h: Tensor, rows: F.PackedRows, qkv: list[np.ndarray],
                source: np.ndarray, arena: F.ScratchArena | None = None) -> Tensor:
        """The trunk after the prefix, over the packed rows ``h``: the
        attention (its projections' rows are table rows ``source`` of
        ``qkv``), LayerNorm, dropout, the residual blocks and the pool.
        ``arena`` is :meth:`pool_chunks`' eval-mode pass: every layer
        writes into it, and dropout is skipped."""
        h = self.attention(h, rows, arena, "attn", qkv, source)
        h = self.norm(h, rows, arena, "norm")
        if self.dropout is not None and arena is None:
            h = self.dropout(h, rows)
        for i, block in enumerate(self.res_blocks):
            h = block(h, rows, arena, f"res{i}")
        return masked_sum_pool(h, rows, arena)

    def forward(self, X: np.ndarray | Tensor, mask: np.ndarray) -> Tensor:
        pooled = self.pool_features(X, mask)
        return self.head(pooled).reshape(pooled.shape[0])

    def pool_chunks(self, X: np.ndarray, mask: np.ndarray,
                    max_chunk: int = 128) -> np.ndarray:
        """The trunk's no-grad pass into a full-batch ``[N, hidden]``
        pooled buffer in the arena (overwritten by the next call).

        The prefix runs once over the whole batch, on the distinct rows
        of every chunk's packed rows; the rest of the trunk runs
        ``max_chunk`` schedules at a time, each chunk gathering its rows
        from the prefix tables.  Rows are independent through every
        layer, so the chunk size changes speed, not bits."""
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float32))
        mask = self._check_geometry(X, mask)
        if max_chunk < 1:
            raise ValueError(f"max_chunk must be >= 1, got {max_chunk}")
        n, length = mask.shape
        arena = self._arena
        pooled = arena.take("pooled", (n, self.config.hidden))
        if n == 0:
            return pooled
        starts = range(0, n, max_chunk)
        chunks = [F.PackedRows(mask[start:start + max_chunk]) for start in starts]
        index = np.concatenate([rows.index + start * length
                                for start, rows in zip(starts, chunks)])
        x = F.gather_rows(arena, "x", X, index, length, n * length)
        distinct = F.DistinctRows(arena, x, n * length)
        _, up2, *qkv = self._prefix(distinct, arena)
        offset = 0
        with no_grad():
            for start, rows in zip(starts, chunks):
                source = distinct.inverse[offset:offset + rows.index.shape[0]]
                offset += rows.index.shape[0]
                h = Tensor(rows.gather(arena, "up2.rows", up2, source))
                pooled[start:start + rows.n] = self._suffix(h, rows, qkv, source, arena).data
        return pooled

    def predict(self, X: np.ndarray, mask: np.ndarray,
                max_chunk: int = 128) -> np.ndarray:
        """Tape-free scores, bit-identical to eval-mode :meth:`forward`.

        Runs the prefix once over the whole batch and the rest of the
        trunk chunk by chunk (:meth:`pool_chunks`), so peak scratch
        memory is bounded by the chunk geometry and the batch's distinct
        rows; the score head then runs once over the whole batch (its
        single-column GEMM is bit-sensitive to the row count).  At
        batch 1,024 (matmul candidates, 7.4 kept rows a sample, 303
        distinct rows of 7,609) and hidden 256 on one BLAS thread, a call
        read 56 ms at the default chunk of 128, 57 ms at 64, 60 ms at 32
        and 256, and 65-70 ms at 512 and 1,024 (a smaller chunk has a
        shorter attention span, a larger one fewer calls).
        Scratch persists on the model between calls and is sized by the
        chunk and batch capacities: after the first call at a given
        geometry, no large buffers are allocated for any mask (dropout,
        if configured, is skipped — eval semantics — and the returned
        ``[N]`` float32 array is the only large per-call allocation).
        """
        pooled = self.pool_chunks(X, mask, max_chunk)
        with no_grad():
            scores = self.head(Tensor(pooled), arena=self._arena, name="head").data
        return scores.reshape(pooled.shape[0]).copy()

    def scratch_info(self) -> dict[str, int]:
        """Arena occupancy/counters backing the no-allocation test."""
        arena = self._arena
        return {"buffers": arena.n_buffers, "nbytes": arena.nbytes,
                "hits": arena.hits, "misses": arena.misses}


__all__ = ["TLPModel", "TLPModelConfig"]
