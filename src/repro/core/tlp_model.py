"""The TLP attention cost model (paper Fig. 7), first slice.

The backbone consumes ``TLPFeaturizer.transform`` output directly: the
``[N, seq_len, emb]`` feature block and its ``[N, seq_len]`` padding
mask.  Per Fig. 7 the rows are linearly up-sampled from the ``emb``
width to the model width, mixed once by multi-head self-attention
(padded rows masked out of the softmax), refined by a stack of
dimension-preserving residual blocks, summed over the sequence axis
(padding zeroed so pad rows contribute nothing), and projected to one
latency score per schedule.

Two execution paths share the weights, and both compute only the rows
whose mask is non-zero (:class:`~repro.nn.functional.PackedRows`
decides which):

* :meth:`TLPModel.forward` — the taped autograd path used for training
  (and as the bit-exactness oracle for the fast path).  The kept rows
  are gathered once into whole ``L``-row blocks, zero-padded, so every
  taped GEMM is the batched ``[L, K] @ [K, E]`` call the dense layout
  makes, over ``ceil(R / L)`` blocks instead of ``N`` samples; weight
  gradients run one GEMM per sample over its kept rows.  Both rules
  keep the bits of the dense layout (why: :mod:`repro.nn.tensor`),
  which ``tests/test_packed_trunk.py`` keeps as the reference, scores,
  loss and every gradient compared byte for byte.  The attention block
  scores only the batch's kept-row span, ``span`` queries by ``width``
  keys (the rule, and why it keeps every bit:
  :class:`~repro.nn.functional.PackedRows`).
* :meth:`TLPModel.predict` — the tape-free serving path: a compiled
  :class:`_InferencePlan` reads the raw weight ndarrays out of the
  module tree once per call, then drives the packed in-place kernels of
  :mod:`repro.nn.functional` over a persistent
  :class:`~repro.nn.functional.ScratchArena`, chunk by chunk.  Each
  chunk computes only its rows whose mask is non-zero, bar two row
  rules that keep the taped forward's BLAS call shapes (a chunk with
  fewer than 2 kept rows runs all its rows; at ``L == 1`` every row
  stays its own gemv); its attention block is trimmed to the chunk's
  span and key width by the same rule as ``forward``'s, and its
  buffers are sized by the chunk capacity ``n * L``, not by the
  kept-row count or the span.  ``predict`` is property-pinned
  bit-identical to eval-mode ``forward`` and performs zero large
  allocations in steady state, whatever the masks.

:meth:`TLPModel.pool_features` exposes the taped trunk up to the pooled
``[N, hidden]`` representation; ``repro.core.mtl`` hangs per-platform
heads off it, and ``repro.core.trainer`` drives both variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, LayerNorm, Linear, ResidualBlock
from repro.nn.module import Module
from repro.nn.tensor import Tensor, as_tensor, gather_rows, segment_sum
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


class _InferencePlan:
    """Raw-ndarray snapshot of the module tree for one ``predict`` call.

    Built once per call (one walk of the module tree; the only copy is
    stacking q/k/v into the arena-pooled ``[D, 3D]`` block, so rebuilds
    track in-place optimizer updates and ``load_state_dict`` swaps for
    free), then run over every chunk.  Holds *references* to the weight
    arrays — nothing here aliases scratch except the qkv stack.
    """

    __slots__ = ("up1_w", "up1_b", "up2_w", "up2_b", "qkv_w", "qkv_b",
                 "out_w", "out_b", "gamma", "beta", "eps", "res", "head_w",
                 "head_b", "n_heads")

    def __init__(self, model: "TLPModel", arena: F.ScratchArena):
        att = model.attention
        dim = att.dim
        self.up1_w = model.up1.weight.data
        self.up1_b = model.up1.bias.data
        self.up2_w = model.up2.weight.data
        self.up2_b = model.up2.bias.data
        self.qkv_w = arena.take("plan.qkv_w", (dim, 3 * dim))
        self.qkv_b = arena.take("plan.qkv_b", (3 * dim,))
        for i, proj in enumerate((att.q_proj, att.k_proj, att.v_proj)):
            self.qkv_w[:, i * dim:(i + 1) * dim] = proj.weight.data
            self.qkv_b[i * dim:(i + 1) * dim] = proj.bias.data
        self.out_w = att.out_proj.weight.data
        self.out_b = att.out_proj.bias.data
        self.gamma = model.norm.gamma.data
        self.beta = model.norm.beta.data
        self.eps = model.norm.eps
        self.res = [(block.fc.weight.data, block.fc.bias.data)
                    for block in model.res_blocks]
        self.head_w = model.head.weight.data
        self.head_b = model.head.bias.data
        self.n_heads = att.n_heads

    def run_chunk(self, arena: F.ScratchArena, X: np.ndarray,
                  mask: np.ndarray, bias: np.ndarray,
                  pooled_out: np.ndarray) -> None:
        """Pool one chunk's features into ``pooled_out`` (a slice of the
        full-batch pooled buffer) using only arena scratch.

        The chunk's kept rows are gathered once and every row-wise layer
        runs over them alone; the attention block covers the chunk's
        kept-row span (see :mod:`repro.nn.functional`).  The head layer
        is deliberately *not* chunked: its single-column GEMM is
        bit-sensitive to the row count, so ``predict`` runs it once over
        the whole batch at the same M as the taped forward."""
        rows = F.PackedRows(mask)
        x = rows.gather(arena, "x", X)
        h = F.linear(arena, "up1", x, self.up1_w, self.up1_b, relu=True, rows=rows)
        h = F.linear(arena, "up2", h, self.up2_w, self.up2_b, relu=True, rows=rows)
        a = F.attention(arena, "attn", h, self.qkv_w, self.qkv_b,
                        self.out_w, self.out_b, self.n_heads, rows, mask_bias=bias)
        np.add(h, a, out=a)  # residual join, same operand order as forward
        h = F.layer_norm(arena, "norm", a, self.gamma, self.beta, self.eps, rows)
        for i, (w, b) in enumerate(self.res):
            h = F.residual_relu_linear(arena, f"res{i}", h, w, b, rows)
        F.masked_sum_pool(arena, "pool", h, rows, out=pooled_out)


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
        """The taped backbone up to (and including) the sequence-sum pool.

        Returns the ``[N, hidden]`` pooled representation the score head
        consumes; ``repro.core.mtl`` hangs multiple per-platform heads
        off this one shared trunk.

        Only the rows whose mask is non-zero are computed
        (:class:`~repro.nn.functional.PackedRows` decides which): they are
        gathered once into whole ``L``-row blocks, zero-padded, and every
        row-wise layer runs over those blocks.  The attention block
        scores ``rows.span`` queries by ``rows.key_width`` keys.  The pool
        adds each sample's kept rows, times their mask values, in row
        order.
        """
        x = as_tensor(X)
        mask = self._check_geometry(x.data, mask)
        rows = F.PackedRows(mask)
        h = gather_rows(x, rows.index, rows.blocks)
        h = self.up2(self.up1(h, rows).relu(), rows).relu()
        h = self.norm(h + self.attention(h, rows))
        if self.dropout is not None:
            h = self.dropout(h, rows)
        for block in self.res_blocks:
            h = block(h, rows)
        return segment_sum(h, rows.bounds, rows.weight)

    def forward(self, X: np.ndarray | Tensor, mask: np.ndarray) -> Tensor:
        pooled = self.pool_features(X, mask)
        return self.head(pooled).reshape(pooled.shape[0])

    def predict(self, X: np.ndarray, mask: np.ndarray,
                max_chunk: int = 128) -> np.ndarray:
        """Tape-free scores, bit-identical to eval-mode :meth:`forward`.

        Compiles the weight snapshot once, then runs the packed kernels
        chunk by chunk (``max_chunk`` schedules at a time), each chunk
        over its kept rows only, so peak scratch memory is bounded by
        the chunk geometry, not the batch.  The chunk size changes
        speed, not results: at batch 1,024 (matmul candidates, 7.4 kept
        rows a sample) and hidden 256 on one BLAS thread, sizes
        32..1024 read 0.12-0.17 s a call over two runs, 32 and 64 up to
        ~10% ahead of the default 128 and 512 and 1,024 up to ~20%
        behind (a smaller chunk has a shorter attention span), and
        scores are bit-identical for every ``max_chunk`` (rows are
        independent through each GEMM).
        Scratch persists on the model between calls and is sized by the
        chunk capacity: after the first call at a given chunk geometry,
        no large buffers are allocated for any mask (dropout, if
        configured, is skipped — eval semantics — and the returned
        ``[N]`` float32 array is the only large per-call allocation).
        """
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float32))
        mask = self._check_geometry(X, mask)
        if max_chunk < 1:
            raise ValueError(f"max_chunk must be >= 1, got {max_chunk}")
        n = X.shape[0]
        arena = self._arena
        plan = _InferencePlan(self, arena)
        # One mask conversion for the whole batch (into the buffer the
        # taped attention path also uses); chunks slice it.
        bias = self.attention.mask_bias(mask)
        pooled = arena.take("plan.pooled", (n, self.config.hidden))
        for start in range(0, n, max_chunk):
            stop = min(start + max_chunk, n)
            plan.run_chunk(arena, X[start:stop], mask[start:stop],
                           bias[start:stop], pooled[start:stop])
        # Head once, full batch: same GEMM row count as the taped path.
        scores = F.linear(arena, "plan.head", pooled, plan.head_w, plan.head_b)
        return scores.reshape(n).copy()

    def scratch_info(self) -> dict[str, int]:
        """Arena occupancy/counters backing the no-allocation test."""
        arena = self._arena
        return {"buffers": arena.n_buffers, "nbytes": arena.nbytes,
                "hits": arena.hits, "misses": arena.misses}


__all__ = ["TLPModel", "TLPModelConfig"]
