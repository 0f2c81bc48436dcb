"""The TLP attention cost model (paper Fig. 7), first slice.

The backbone consumes ``TLPFeaturizer.transform`` output directly: the
``[N, seq_len, emb]`` feature block and its ``[N, seq_len]`` padding
mask.  Per Fig. 7 the rows are linearly up-sampled from the ``emb``
width to the model width, mixed once by multi-head self-attention
(padded rows masked out of the softmax), refined by a stack of
dimension-preserving residual blocks, summed over the sequence axis
(padding zeroed so pad rows contribute nothing), and projected to one
latency score per schedule.

Two execution paths share the weights:

* :meth:`TLPModel.forward` — the taped autograd path used for training
  (and as the bit-exactness oracle for the fast path).
* :meth:`TLPModel.predict` — the tape-free serving path: a compiled
  :class:`_InferencePlan` reads the raw weight ndarrays out of the
  module tree once per call, then drives the fused in-place kernels of
  :mod:`repro.nn.functional` over a persistent
  :class:`~repro.nn.functional.ScratchArena`, chunking the batch to
  bound peak scratch memory.  ``predict`` is property-pinned
  bit-identical to eval-mode ``forward`` and performs zero large
  allocations in steady state.

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
from repro.nn.tensor import Tensor, as_tensor
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
        full-batch pooled buffer) using only arena scratch.  The head
        layer is deliberately *not* chunked: its single-column GEMM is
        bit-sensitive to the row count, so ``predict`` runs it once over
        the whole batch at the same M as the taped forward."""
        h = F.linear(arena, "up1", X, self.up1_w, self.up1_b, relu=True)
        h = F.linear(arena, "up2", h, self.up2_w, self.up2_b, relu=True)
        a = F.attention(arena, "attn", h, self.qkv_w, self.qkv_b,
                        self.out_w, self.out_b, self.n_heads, mask_bias=bias)
        np.add(h, a, out=a)  # residual join, same operand order as forward
        h = F.layer_norm(arena, "norm", a, self.gamma, self.beta, self.eps)
        for i, (w, b) in enumerate(self.res):
            h = F.residual_relu_linear(arena, f"res{i}", h, w, b)
        F.masked_sum_pool(arena, "pool", h, mask, out=pooled_out)


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
        consumes.  Split out from :meth:`forward` so ``repro.core.mtl``
        can hang multiple per-platform heads off one shared trunk; the
        op sequence is exactly the old forward body, so single-head
        scores stay bit-identical.
        """
        x = as_tensor(X)
        mask = self._check_geometry(x.data, mask)
        n, length, _ = x.shape
        h = self.up2(self.up1(x).relu()).relu()
        h = self.norm(h + self.attention(h, mask))
        if self.dropout is not None:
            h = self.dropout(h)
        for block in self.res_blocks:
            h = block(h)
        # Padding rows carry attention/bias residue; zero them so the
        # sequence sum only aggregates real primitive rows.
        return (h * mask.reshape(n, length, 1)).sum(axis=1)

    def forward(self, X: np.ndarray | Tensor, mask: np.ndarray) -> Tensor:
        pooled = self.pool_features(X, mask)
        return self.head(pooled).reshape(pooled.shape[0])

    def predict(self, X: np.ndarray, mask: np.ndarray,
                max_chunk: int = 128) -> np.ndarray:
        """Tape-free scores, bit-identical to eval-mode :meth:`forward`.

        Compiles the weight snapshot once, then runs the fused kernels
        chunk by chunk (``max_chunk`` schedules at a time) so peak
        scratch memory is bounded by the chunk geometry, not the batch.
        The default of 128 keeps the working set cache-resident — it
        measured fastest across chunk sizes 64..1024 at batch 1024 —
        and results are bit-identical for every ``max_chunk`` (chunk
        rows are independent through each GEMM).
        Scratch persists on the model between calls: after the first
        call at a given chunk geometry, no large buffers are allocated
        (dropout, if configured, is skipped — eval semantics — and the
        returned ``[N]`` float32 array is the only per-call allocation).
        """
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float32))
        mask = self._check_geometry(X, mask)
        if max_chunk < 1:
            raise ValueError(f"max_chunk must be >= 1, got {max_chunk}")
        n, length, _ = X.shape
        arena = self._arena
        plan = _InferencePlan(self, arena)
        # One mask conversion for the whole batch (into the buffer the
        # taped attention path also uses); chunks slice it.
        bias = self.attention.mask_bias(mask)
        # Chunk boundaries keep every GEMM's row count out of the M == 1
        # gemv class (different accumulation bits — see functional.py):
        # with length 1 a chunk's rows are its GEMM M, so chunks of one
        # row are never isolated.
        eff = max_chunk if length > 1 else max(max_chunk, 2)
        edges = list(range(0, n, eff)) + [n]
        if len(edges) > 2 and edges[-1] - edges[-2] == 1:
            del edges[-2]  # merge the 1-row tail into the previous chunk
        pooled = arena.take("plan.pooled", (n, self.config.hidden))
        for start, stop in zip(edges, edges[1:]):
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
