"""Tape-free fused inference kernels over raw float32 ndarrays.

The taped ops in :mod:`repro.nn.tensor` allocate a fresh array per
operation and keep every intermediate alive for a backward pass that
pure scoring never runs.  The kernels here are the inference
counterparts: each one fuses a whole layer into a handful of in-place
ufunc calls writing into preallocated :class:`ScratchArena` buffers, so
steady-state inference performs zero large allocations.

Bit-identity with the taped path is a hard contract (property-tested in
``tests/test_nn_functional.py`` and ``tests/test_predict.py``): every
kernel replays the exact float32 operation sequence of its taped layer —
same ufuncs, same operand order, same memory layouts into ``np.matmul``
(layout matters: this BLAS does not produce identical bits for
contiguous and non-contiguous operands, so head splits are materialized
contiguous exactly where the taped reshape does).  The only allowed
deviations are ``out=`` targets and algebraically-identity rewrites
verified bit-exact on float32 (``np.maximum(x, 0)`` for
``np.where(x > 0, x, 0)``, commuted addition).

A caller-facing sharp edge: BLAS kernel dispatch depends on the GEMM
row count M.  Measured on this BLAS, ``x @ W`` row blocks reproduce the
full-matrix bits for every M >= 2 when W has more than one column, but
M == 1 falls to a gemv kernel with different accumulation, and
single-column GEMMs (W of shape ``[K, 1]``) are erratic across small M.
The inference plan therefore never isolates a 1-row chunk and runs the
single-column head layer once over the whole batch, at the same M the
taped forward uses.
"""

from __future__ import annotations

import math

import numpy as np

_F32_ZERO = np.float32(0.0)

#: Additive logit for masked attention keys — must match
#: ``repro.nn.attention`` (single source of the serving-path constant).
MASK_PENALTY = np.float32(1e9)


class ScratchArena:
    """A pool of preallocated float32 buffers keyed by (name, shape).

    ``take(name, shape)`` returns the pooled buffer for that key,
    allocating only on first use — callers with a fixed batch geometry
    (the compiled inference plan) hit the pool on every call after the
    first.  Keys include the call-site name so two live buffers of equal
    shape never alias.  Contents are undefined on ``take``; every kernel
    fully overwrites what it takes.

    ``hits`` / ``misses`` count pool probes and back the no-allocation
    acceptance test: a steady-state ``predict`` call must be all hits.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        key = (name, shape)
        buf = self._buffers.get(key)
        if buf is None:
            self.misses += 1
            buf = np.empty(shape, dtype=np.float32)
            self._buffers[key] = buf
        else:
            self.hits += 1
        return buf

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        """Drop every pooled buffer (and the counters)."""
        self._buffers.clear()
        self.reset_counters()

    @property
    def n_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())

    def __repr__(self) -> str:
        return (f"ScratchArena(buffers={self.n_buffers}, "
                f"nbytes={self.nbytes}, hits={self.hits}, misses={self.misses})")


def additive_mask_bias(mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``[N, L]`` padding mask -> ``[N, 1, 1, L]`` additive attention bias.

    The one home of the mask -> float conversion shared by the taped
    attention forward and the tape-free ``predict`` plan: 0.0 on real
    rows, ``-MASK_PENALTY`` on padding, broadcastable over the
    ``[N, heads, L, L]`` score block.
    """
    mask = np.asarray(mask, dtype=np.float32)
    n, length = mask.shape
    if out is None:
        out = np.empty((n, 1, 1, length), dtype=np.float32)
    flat = out.reshape(n, length)
    np.subtract(mask, np.float32(1.0), out=flat)
    np.multiply(flat, MASK_PENALTY, out=flat)
    return out


class MaskBiasCache:
    """:func:`additive_mask_bias` into a held buffer, one per geometry.

    Every ``get`` recomputes the bias from the mask's current contents —
    two ufunc passes, microseconds even for a ``[1024, 25]`` mask — so
    nothing is keyed on the mask object: a buffer reused or mutated in
    place always gets a fresh bias.  The buffer is reused while the
    geometry stays the same, so steady-state serving and training
    allocate nothing here.
    """

    def __init__(self) -> None:
        self._bias: np.ndarray | None = None

    def get(self, mask: np.ndarray) -> np.ndarray:
        n, length = mask.shape
        out = self._bias if self._bias is not None and self._bias.shape == (
            n, 1, 1, length) else None
        self._bias = additive_mask_bias(mask, out=out)
        return self._bias


# -- fused layer kernels -------------------------------------------------
#
# Each kernel takes the arena plus a call-site name, reads raw weight
# ndarrays, and returns an arena-backed result.  Inputs are never
# modified unless the kernel documents in-place consumption.


def linear(arena: ScratchArena, name: str, x: np.ndarray,
           weight: np.ndarray, bias: np.ndarray | None,
           relu: bool = False) -> np.ndarray:
    """Fused ``relu(x @ W + b)``: one GEMM into scratch, bias add and
    ReLU in place.  Matches ``Linear`` (+ ``.relu()``) bit for bit."""
    out = arena.take(name, x.shape[:-1] + (weight.shape[1],))
    np.matmul(x, weight, out=out)
    if bias is not None:
        out += bias
    if relu:
        np.maximum(out, _F32_ZERO, out=out)
    return out


def layer_norm(arena: ScratchArena, name: str, x: np.ndarray,
               gamma: np.ndarray, beta: np.ndarray, eps: float) -> np.ndarray:
    """Fused LayerNorm over the last axis.  Consumes ``x`` in place
    (callers pass scratch they no longer need) and returns it.

    The two-moment sequence (mean, then mean of squared deviations)
    replays the taped ``LayerNorm.forward`` exactly — a one-pass
    ``E[x^2] - mu^2`` rewrite would not be bit-identical in float32 —
    but runs in three scratch buffers with every elementwise step
    in place.
    """
    stat_shape = x.shape[:-1] + (1,)
    mu = arena.take(f"{name}.mu", stat_shape)
    np.mean(x, axis=-1, keepdims=True, dtype=np.float32, out=mu)
    np.subtract(x, mu, out=x)  # x is now `centered`
    sq = arena.take(f"{name}.sq", x.shape)
    np.multiply(x, x, out=sq)
    var = arena.take(f"{name}.var", stat_shape)
    np.mean(sq, axis=-1, keepdims=True, dtype=np.float32, out=var)
    var += np.float32(eps)
    np.power(var, np.float32(-0.5), out=var)  # 1 / sqrt(var + eps)
    np.multiply(x, var, out=x)
    np.multiply(x, gamma, out=x)
    x += beta
    return x


def _pairwise_rowmax(v: np.ndarray, arena: ScratchArena, name: str,
                     out: np.ndarray) -> None:
    """Row max of ``v [M, L]`` into ``out [M, 1]`` by pairwise halving.

    ``np.amax`` over a short last axis runs a scalar inner loop; folding
    column halves with ``np.maximum`` keeps the work in wide SIMD ops
    (~1.6x faster at L=25).  Max is associative and commutative with no
    rounding, so any combination tree is bit-identical to the sequential
    scan — and a ±0.0 sign disagreement cannot survive the subsequent
    ``exp`` (both shifts produce exactly 1.0).
    """
    m = v
    while m.shape[1] > 1:
        half = m.shape[1] // 2
        nm = out if half == 1 else arena.take(f"{name}.fold{half}", (v.shape[0], half))
        np.maximum(m[:, :half], m[:, half:2 * half], out=nm)
        if m.shape[1] % 2:
            np.maximum(nm[:, 0], m[:, -1], out=nm[:, 0])
        m = nm
    if m is v:  # L == 1
        np.copyto(out, v)


def softmax_(x: np.ndarray, arena: ScratchArena, name: str) -> np.ndarray:
    """In-place last-axis max-shifted softmax; matches ``tensor.softmax``
    bit for bit (the shift is the same detached constant)."""
    length = x.shape[-1]
    stat = arena.take(f"{name}.stat", x.shape[:-1] + (1,))
    _pairwise_rowmax(x.reshape(-1, length), arena, name, stat.reshape(-1, 1))
    np.subtract(x, stat, out=x)
    np.exp(x, out=x)
    np.sum(x, axis=-1, keepdims=True, out=stat)
    np.divide(x, stat, out=x)
    return x


def attention(arena: ScratchArena, name: str, x: np.ndarray,
              qkv_weight: np.ndarray, qkv_bias: np.ndarray,
              out_weight: np.ndarray, out_bias: np.ndarray,
              n_heads: int, mask_bias: np.ndarray | None = None) -> np.ndarray:
    """Fused multi-head self-attention, bit-identical to
    ``MultiHeadSelfAttention.forward``.

    The q/k/v projections run as one stacked GEMM against the
    ``[D, 3D]`` ``qkv_weight`` (verified bit-identical per column block
    to three separate GEMMs on this BLAS), the additive ``mask_bias``
    comes in precomputed (``MaskBiasCache``), and the softmax runs in
    place on the score block.  Head splits are materialized into
    contiguous ``[N, L, H, hd]`` scratch — the same layout the taped
    ``reshape`` produces — because matmul bits depend on operand layout.
    """
    n, length, dim = x.shape
    if dim % n_heads:
        raise ValueError(f"dim {dim} is not divisible by n_heads {n_heads}")
    head_dim = dim // n_heads
    scale = np.float32(1.0 / math.sqrt(head_dim))

    qkv = arena.take(f"{name}.qkv", (n, length, 3 * dim))
    np.matmul(x, qkv_weight, out=qkv)
    qkv += qkv_bias

    heads = []
    for i, part in enumerate(("q", "k", "v")):
        h = arena.take(f"{name}.{part}", (n, length, n_heads, head_dim))
        np.copyto(h.reshape(n, length, dim), qkv[:, :, i * dim:(i + 1) * dim])
        heads.append(h.transpose(0, 2, 1, 3))  # [N, H, L, hd] view
    q, k, v = heads

    scores = arena.take(f"{name}.scores", (n, n_heads, length, length))
    np.matmul(q, k.transpose(0, 1, 3, 2), out=scores)
    scores *= scale
    if mask_bias is not None:
        scores += mask_bias
    softmax_(scores, arena, f"{name}.softmax")

    mixed_h = arena.take(f"{name}.mixed_h", (n, n_heads, length, head_dim))
    np.matmul(scores, v, out=mixed_h)
    # Back to [N, L, D] contiguous, as the taped transpose+reshape copies.
    mixed = arena.take(f"{name}.mixed", (n, length, dim))
    np.copyto(mixed.reshape(n, length, n_heads, head_dim), mixed_h.transpose(0, 2, 1, 3))
    return linear(arena, f"{name}.out", mixed, out_weight, out_bias)


def residual_relu_linear(arena: ScratchArena, name: str, x: np.ndarray,
                         weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Fused ``x + relu(x @ W + b)`` — the ``ResidualBlock`` unit."""
    out = linear(arena, name, x, weight, bias, relu=True)
    np.add(x, out, out=out)  # same operand order as the taped `x + relu`
    return out


def masked_sum_pool(arena: ScratchArena, name: str, x: np.ndarray,
                    mask: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """``sum_L(x * mask[:, :, None])`` -> ``[N, D]``.  Consumes ``x``.

    ``out`` lets the inference plan pool chunk results into a slice of a
    full-batch buffer (so the batch-sensitive head GEMM can run once
    over all rows — see the module docstring on kernel dispatch).
    """
    np.multiply(x, mask[:, :, None], out=x)
    if out is None:
        out = arena.take(name, (x.shape[0], x.shape[2]))
    np.sum(x, axis=1, out=out)
    return out


__all__ = [
    "MASK_PENALTY",
    "MaskBiasCache",
    "ScratchArena",
    "additive_mask_bias",
    "attention",
    "layer_norm",
    "linear",
    "masked_sum_pool",
    "residual_relu_linear",
    "softmax_",
]
