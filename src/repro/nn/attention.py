"""Multi-head self-attention with padding-mask support.

The Fig. 7 backbone's sequence mixer: scaled dot-product attention over
the primitive-sequence axis.  The padding mask is the float ``[N, L]``
array ``TLPFeaturizer.transform`` returns alongside ``X`` — 1.0 on real
primitive rows, 0.0 on padding — applied additively (−1e9 on masked
keys) before the softmax, so padded positions receive zero attention
weight from every query.

The layer runs over packed rows (:class:`~repro.nn.functional.PackedRows`,
which holds the mask): its input and output are the
``[ceil(R / L), L, D]`` blocks of the ``R`` kept rows.  The q/k/v and
output projections run over those blocks.  The score block covers only
the kept-row span, ``[n, heads, span, key_width]``: q is scattered
into ``[n, span, D]`` and k/v into ``[n, key_width, D]``, zeros on the
skipped rows, and the kept rows' mixed heads are gathered back out
(``PackedRows`` says why the span and key width keep every bit of the
full ``L x L`` block, forward and backward).

The mask → additive-bias conversion has one home,
:func:`repro.nn.functional.additive_mask_bias`, and runs into the held
buffer of a :class:`~repro.nn.functional.MaskBiasCache` owned by the
layer — the taped forward and the tape-free ``TLPModel.predict`` plan
share both the formula and the buffer.  The bias is recomputed from the
mask's contents on every call, so a mask buffer reused across batches
never sees a stale bias.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.functional import MASK_PENALTY, MaskBiasCache, PackedRows
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, gather_rows, scatter_rows, softmax
from repro.utils.rng import stream

#: Additive logit for masked keys: large enough that float32 softmax
#: assigns them exactly zero weight against any real logit.  Re-exported
#: from ``repro.nn.functional`` (the serving path uses the same value).
_MASK_PENALTY = MASK_PENALTY


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention, ``n_heads`` parallel heads."""

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator | None = None):
        if dim % n_heads != 0:
            raise ValueError(f"dim {dim} is not divisible by n_heads {n_heads}")
        if rng is None:
            rng = stream(f"nn.init.attention.{dim}x{n_heads}")
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)
        self._mask_cache = MaskBiasCache()

    def mask_bias(self, mask: np.ndarray) -> np.ndarray:
        """``[N, 1, 1, L]`` additive bias for a padding mask, in the
        layer's held buffer (overwritten by the next call)."""
        return self._mask_cache.get(mask)

    def _heads(self, x: Tensor, index: np.ndarray, n: int, size: int) -> Tensor:
        """Packed ``[B, L, D]`` rows -> ``[n, heads, size, head_dim]``,
        packed row ``i`` at row ``index[i]`` of ``[n * size]``, zeros on
        the rest."""
        dense = scatter_rows(x, index, (n, size))
        return dense.reshape(n, size, self.n_heads, self.head_dim).transpose((0, 2, 1, 3))

    def forward(self, x: Tensor, rows: PackedRows) -> Tensor:
        """Self-attention over the packed ``[B, L, D]`` rows ``x`` of
        ``rows``' samples; returns the packed ``[B, L, D]`` output.
        ``rows.span`` queries score ``rows.key_width`` keys, and the mask
        bias gives the zero keys of skipped rows exactly zero weight."""
        n, span, key_width = rows.n, rows.span, rows.key_width
        q = self._heads(self.q_proj(x, rows), rows.query_index, n, span)
        k = self._heads(self.k_proj(x, rows), rows.key_index, n, key_width)
        v = self._heads(self.v_proj(x, rows), rows.key_index, n, key_width)
        scores = (q @ k.transpose((0, 1, 3, 2))) * np.float32(1.0 / math.sqrt(self.head_dim))
        attn = softmax(scores + self.mask_bias(rows.mask)[..., :key_width], axis=-1)
        mixed = (attn @ v).transpose((0, 2, 1, 3)).reshape(n, span, self.dim)
        return self.out_proj(gather_rows(mixed, rows.query_index, rows.blocks), rows)


__all__ = ["MultiHeadSelfAttention"]
