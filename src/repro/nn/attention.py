"""Multi-head self-attention with padding-mask support and its residual join.

The Fig. 7 backbone's sequence mixer: scaled dot-product attention over
the primitive-sequence axis, added back onto its input.  The padding
mask is the float ``[N, L]`` array ``TLPFeaturizer.transform`` returns
alongside ``X`` — 1.0 on real primitive rows, 0.0 on padding —
applied additively (-1e9 on masked keys) before the softmax, so padded
positions receive zero attention weight from every query.  The bias is
recomputed from the mask's contents on every call, into the held
buffer of the layer's :class:`~repro.nn.functional.MaskBiasCache`.

One forward: :func:`repro.nn.functional.attention` over the packed rows
:class:`~repro.nn.functional.PackedRows` keeps, scoring only the
kept-row span, in training and in ``TLPModel.predict`` alike; with
grad enabled it records one tape node whose backward is
:func:`repro.nn.functional.attention_backward`.  The kernel takes the
q, k and v projections' rows: :meth:`MultiHeadSelfAttention.project`
computes them, which ``TLPModel`` runs once per distinct feature row
(:class:`~repro.nn.functional.DistinctRows`) before the rest of the
layer.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.functional import DistinctRows, MaskBiasCache, PackedRows, ScratchArena
from repro.nn.layers import Linear, scratch_for
from repro.nn.module import Module
from repro.nn.tensor import Tensor, track_layer
from repro.utils.rng import stream


class MultiHeadSelfAttention(Module):
    """``x + attention(x)``: scaled dot-product self-attention, ``n_heads``
    parallel heads, joined back onto its input."""

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

    def project(self, x: np.ndarray, rows: DistinctRows, scratch: F.Scratch,
                name: str = "attn") -> list[np.ndarray]:
        """The q, k and v tables of the distinct rows ``x`` of the layer's
        input (``rows.values`` through the layers before it), one linear
        kernel each: the ``qkv`` that :meth:`forward` takes."""
        return [F.linear(scratch, f"{name}.{part}_proj", x, p.weight.data, p.bias.data,
                         rows=rows)
                for part, p in zip("qkv", (self.q_proj, self.k_proj, self.v_proj))]

    def forward(self, x: Tensor, rows: PackedRows, arena: ScratchArena | None = None,
                name: str = "attn", qkv: list[np.ndarray] | None = None,
                source: np.ndarray | None = None) -> Tensor:
        """``x + attention(x)`` over the packed rows ``x`` of ``rows``'
        samples.  ``qkv`` holds the projections' tables and ``source``
        each packed row's row in them (default: :meth:`project` of ``x``'s
        distinct rows).  ``rows.span`` queries score ``rows.key_width``
        keys, and the mask bias gives the keys of skipped rows exactly
        zero weight."""
        scratch = scratch_for(arena)
        if qkv is None:
            distinct = DistinctRows(scratch, x.data, rows.n * rows.length)
            qkv, source = self.project(distinct.values, distinct, scratch, name), distinct.inverse
        projs = (self.q_proj, self.k_proj, self.v_proj, self.out_proj)
        out = F.attention(scratch, name, x.data, qkv, source,
                          (self.out_proj.weight.data, self.out_proj.bias.data),
                          self.n_heads, rows, self.mask_bias(rows.mask))

        def grads(g: np.ndarray):
            return F.attention_backward(g, scratch, name, x.data,
                                        [p.weight.data for p in projs], self.n_heads,
                                        rows, x.requires_grad)

        params = [t for p in projs for t in (p.weight, p.bias)]
        return track_layer(out, (x, *params), grads)


__all__ = ["MultiHeadSelfAttention"]
