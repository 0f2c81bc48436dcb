"""The test oracle for the layer kernels: each layer as a chain of raw
``Tensor`` ops over the dense ``[n, L, width]`` layout.

Every function here reads a layer's parameters but never calls a layer
or a kernel of ``repro.nn.functional``: ``x @ W + b``, the LayerNorm
chain, the max-shifted softmax with the additive mask, the whole
``L x L`` attention block, and the pool as a masked sum over every row.
The kernels run only the kept rows and the kept-row span, with a
hand-written backward; ``tests/test_packed_trunk.py`` and
``tests/test_nn_functional.py`` hold them to these chains byte for byte.
:func:`pooled_rows` draws the repeating feature rows those tests feed
the trunk's once-per-distinct-row prefix.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn import Tensor


def linear(x: Tensor, layer, relu: bool = False) -> Tensor:
    out = x @ layer.weight
    if layer.bias is not None:
        out = out + layer.bias
    return out.relu() if relu else out


def layer_norm(x: Tensor, norm) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered * (var + norm.eps) ** -0.5
    return normed * norm.gamma + norm.beta


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, shifted by a detached max (softmax is
    invariant to it, so the gradient is exact without it)."""
    e = (x - x.data.max(axis=axis, keepdims=True)).exp()
    return e / e.sum(axis=axis, keepdims=True)


def mask_bias(mask: np.ndarray) -> np.ndarray:
    """``[n, L]`` 0/1 mask -> ``[n, 1, 1, L]``: 0 on real keys, -1e9 on padding."""
    n, length = mask.shape
    return (mask.reshape(n, 1, 1, length) - np.float32(1.0)) * np.float32(1e9)


def attention(att, x: Tensor, mask: np.ndarray) -> Tensor:
    """Multi-head self-attention over every row, the whole ``L x L``
    block scored; without the residual join."""
    n, length, _ = x.shape
    q, k, v = (linear(x, proj).reshape(n, length, att.n_heads, att.head_dim)
               .transpose((0, 2, 1, 3)) for proj in (att.q_proj, att.k_proj, att.v_proj))
    scores = (q @ k.transpose((0, 1, 3, 2))) * np.float32(1.0 / math.sqrt(att.head_dim))
    probs = softmax(scores + mask_bias(mask), axis=-1)
    mixed = (probs @ v).transpose((0, 2, 1, 3)).reshape(n, length, att.dim)
    return linear(mixed, att.out_proj)


def residual(x: Tensor, block) -> Tensor:
    return x + linear(x, block.fc, relu=True)


def pool(x: Tensor, mask: np.ndarray) -> Tensor:
    n, length = mask.shape
    return (x * mask.reshape(n, length, 1)).sum(axis=1)


def dense_pool_features(model, X: np.ndarray, mask: np.ndarray) -> Tensor:
    """The TLP trunk over every row of every sequence, padding zeroed at
    the pool.  Dropout draws its keep-mask from the model's generator at
    the dense shape, as the layer does."""
    h = linear(linear(Tensor(X), model.up1, relu=True), model.up2, relu=True)
    h = layer_norm(h + attention(model.attention, h, mask), model.norm)
    drop = model.dropout
    if drop is not None and drop.training:
        keep = (drop._rng.random(h.shape) >= drop.p).astype(np.float32)
        h = h * (keep / np.float32(1.0 - drop.p))
    for block in model.res_blocks:
        h = residual(h, block)
    return pool(h, mask)


def dense_forward(model, X: np.ndarray, mask: np.ndarray,
                  platform_ids: np.ndarray | None = None) -> Tensor:
    """Scores of a ``TLPModel``, or of an ``MTLTLPModel`` given its
    per-row head ids: each head's scores masked to its rows and summed,
    heads in order."""
    if platform_ids is None:
        pooled = dense_pool_features(model, X, mask)
        return linear(pooled, model.head).reshape(pooled.shape[0])
    pooled = dense_pool_features(model.trunk, X, mask)
    n = pooled.shape[0]
    scores = None
    for i, head in enumerate(model.heads):
        sel = platform_ids == i
        if sel.any():
            masked = linear(pooled, head).reshape(n) * sel.astype(np.float32)
            scores = masked if scores is None else scores + masked
    return scores


def pooled_rows(rng, n, length, emb, pool, twin="none"):
    """``[n, length, emb]`` features whose rows are drawn from ``pool``
    distinct rows, as a batch's candidates share their primitives.  With
    ``twin`` the last pool row is a near copy of the first: one ulp apart
    in one feature ("ulp"), or equal but for the sign of its zeros
    ("signed_zero"); either way a row of its own."""
    rows = rng.standard_normal((pool, emb)).astype(np.float32)
    if pool > 1 and twin == "ulp":
        rows[-1] = rows[0]
        rows[-1, 0] = np.nextafter(rows[0, 0], np.float32(np.inf))
    if pool > 1 and twin == "signed_zero":
        rows[0, ::2] = 0.0
        rows[-1] = rows[0]
        rows[-1, ::2] = -0.0
    return rows[rng.integers(0, pool, size=(n, length))]
