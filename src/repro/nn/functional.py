"""Tape-free packed inference kernels over raw float32 ndarrays.

The taped ops in :mod:`repro.nn.tensor` allocate a fresh array per
operation and keep every intermediate alive for a backward pass that
pure scoring never runs.  The kernels here are the inference
counterparts: each one fuses a whole layer into a handful of in-place
ufunc calls writing into preallocated :class:`ScratchArena` buffers, so
steady-state inference performs zero large allocations.

**Which rows are computed.**  A padding row (mask 0) changes no score:
with a 0/1 padding mask (what ``TLPFeaturizer.transform`` emits) the
masked softmax gives its key exactly zero weight next to any real key,
and the masked pool drops its output.  :class:`PackedRows` therefore
gathers the rows
of a ``[n, L]`` chunk whose mask is non-zero once, and every row-wise
layer (linear, the stacked q/k/v projection, the output projection,
the residual join, LayerNorm, the residual blocks) runs as one GEMM or
ufunc pass over those rows only.  The attention block (``q @ kᵀ``,
softmax, ``attn @ v``) scores only the chunk's kept-row span
(:class:`PackedRows`' ``span`` queries by ``key_width`` keys): q is
scattered into ``[n, span, heads, head_dim]`` and k/v into
``[n, key_width, heads, head_dim]``, zeros on the skipped rows, and the
packed rows are gathered back out of its result.  The pool adds each
sample's kept rows, times their mask values, in row order.  Two row
rules keep the BLAS call shapes of the taped forward:

1. A chunk with fewer than 2 kept rows runs all its rows: a 1-row GEMM
   falls to a gemv kernel with other accumulation bits.
2. At ``L == 1`` the taped GEMMs (one per 1-row block) are themselves
   1-row gemv calls, so packed activations keep a ``[R, 1, width]``
   shape and each row stays its own gemv.

A sample with no kept row pools to zeros.

**Bounded scratch.**  Every packed buffer is sized by the chunk
capacity ``n * L`` and sliced to the kept-row count ``R``, and every
span-trimmed attention buffer (softmax's row statistics and folds
included) is a view of one sized by the full ``L x L`` block, so the
arena holds one buffer per call site and chunk geometry whatever the
masks are; keying a buffer by ``R`` or the span would allocate one per
distinct value.  Only a chunk's small index arrays (the kept-row ids,
their places in the trimmed layouts, per-sample offsets) are allocated
per call.

**Bit-identity with the taped path** is a hard contract
(property-tested in ``tests/test_nn_functional.py`` and
``tests/test_predict.py``): every kernel replays the exact float32
operation sequence of its taped layer on the rows it computes — same
ufuncs, same operand order, same memory layouts into ``np.matmul``
(layout matters: this BLAS does not produce identical bits for
contiguous and non-contiguous operands, so head splits are materialized
contiguous exactly where the taped reshape does).  A forward GEMM over
gathered rows reproduces the taped ``L``-row GEMM's rows bit for bit
whenever it has at least 2 rows (checked on every weight shape of the
repo's model configs), a skipped key gets softmax weight exactly 0
on both paths, and both paths trim the attention block to the same
span and width.  The only other deviations are ``out=`` targets and
algebraically-identity rewrites verified bit-exact on float32
(``np.maximum(x, 0)`` for ``np.where(x > 0, x, 0)``, commuted addition,
adding a sample's kept rows without the ``±0`` of its skipped ones).

Single-column GEMMs (W of shape ``[K, 1]``) are erratic across small
row counts on this BLAS, so the inference plan runs the score head once
over the whole batch, at the same row count the taped forward uses.
"""

from __future__ import annotations

import math

import numpy as np

_F32_ZERO = np.float32(0.0)

#: Additive logit for masked attention keys — must match
#: ``repro.nn.attention`` (single source of the serving-path constant).
MASK_PENALTY = np.float32(1e9)

#: Sequences shorter than this have their attention block trimmed to the
#: kept-row span (:class:`PackedRows`); longer ones keep the full block,
#: whose GEMM bits the trimmed one does not reproduce on this BLAS.
TRIM_BELOW_LENGTH = 32


class ScratchArena:
    """A pool of preallocated float32 buffers keyed by (name, shape).

    ``take(name, shape)`` returns the pooled buffer for that key,
    allocating only on first use — callers with a fixed batch geometry
    (the compiled inference plan) hit the pool on every call after the
    first.  A call site whose shape varies from call to call passes the
    largest shape it will ask for as ``capacity``: the buffer is pooled
    by that, and ``take`` returns a view of its first elements (packed
    rows, :meth:`PackedRows.take`, and the span-trimmed attention
    block), so the pool stays warm whatever the masks.  Keys include
    the call-site name so two live buffers of equal shape never alias.
    Contents are undefined on ``take``; every kernel fully overwrites
    what it takes.

    ``hits`` / ``misses`` count pool probes and back the no-allocation
    acceptance test: a steady-state ``predict`` call must be all hits.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def take(self, name: str, shape: tuple[int, ...],
             capacity: tuple[int, ...] | None = None) -> np.ndarray:
        pooled = shape if capacity is None else capacity
        key = (name, pooled)
        buf = self._buffers.get(key)
        if buf is None:
            self.misses += 1
            buf = np.empty(pooled, dtype=np.float32)
            self._buffers[key] = buf
        else:
            self.hits += 1
        if capacity is None:
            return buf
        return buf.reshape(-1)[:math.prod(shape)].reshape(shape)

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
    rows, ``-MASK_PENALTY`` on padding; cut to a key width
    (``bias[..., :key_width]``) it broadcasts over the span-trimmed
    ``[N, heads, span, key_width]`` score block.
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


class PackedRows:
    """The rows of one ``[n, L]`` mask that the packed paths compute.

    ``index`` holds the flat ids (``s * L + l``) of the rows whose mask
    is non-zero, in row order; ``weight`` their mask values; sample
    ``s`` owns packed rows ``bounds[s]:bounds[s + 1]``.  A mask with
    fewer than 2 kept rows keeps all its rows (row rule 1 of the module
    docstring).  The two paths lay the ``R`` packed rows out differently:

    * ``predict`` as ``lead + (width,)`` arrays, ``lead`` being ``(R,)``,
      or ``(R, 1)`` at ``L == 1`` (row rule 2);
    * the taped path (``TLPModel.pool_features``) as ``blocks + (width,)``
      arrays, ``blocks`` being ``(ceil(R / L), L)``: the rows zero-padded
      to whole ``L``-row blocks, so every taped GEMM is the batched
      ``[L, K] @ [K, E]`` call the dense layout makes.

    Both paths' attention scores only the kept-row span.  ``span`` is 1 +
    the last position of a packed row over all samples: every query past
    it is a skipped row, whose output nobody reads.  ``key_width``, the
    key count, is the smallest multiple of 8 that is >= ``span`` and
    <= ``L - L % 8``, or ``L`` if there is none: the keys in
    ``span..key_width`` are skipped rows, zeros given exactly zero softmax
    weight, and numpy's float32 last-axis sum adds a row in 8 pairwise
    accumulators and then its remainder in order, so a row whose columns
    past ``span`` are zero sums to the same bits at such a width as at
    ``L`` (other widths do not: at ``L == 25`` widths 9-15 and 17-23
    change bits).  The GEMMs either side gain or lose only zero terms
    and rows, which keeps their bits below :data:`TRIM_BELOW_LENGTH`
    positions only: from ``L == 32`` this BLAS rounds some of the
    block's GEMMs differently at the full depth than at the trimmed one
    (measured against the full block: head_dim 4 and 8 from ``L == 32``,
    head_dim 32 from ``L == 40``), so a longer sequence is not trimmed
    (``span == key_width == L``).  ``query_index`` and ``key_index``
    place the packed rows in the ``[n, span]`` query and
    ``[n, key_width]`` key/value layouts.
    """

    __slots__ = ("n", "length", "mask", "index", "bounds", "lead", "blocks", "weight",
                 "span", "key_width", "query_index", "key_index")

    def __init__(self, mask: np.ndarray):
        n, length = mask.shape
        flat = mask.reshape(n * length)
        self.n, self.length, self.mask = n, length, mask
        self.index = np.flatnonzero(flat)
        counts = np.count_nonzero(mask, axis=1)
        if self.index.shape[0] < 2:
            self.index = np.arange(n * length)
            counts = np.full(n, length)
        self.bounds = [0, *np.cumsum(counts).tolist()]
        kept = self.index.shape[0]
        self.lead = (kept, 1) if length == 1 else (kept,)
        self.blocks = (-(-kept // length), length)
        self.weight = flat[self.index]
        sample, position = np.divmod(self.index, length)
        self.span = self.key_width = length
        if kept and length < TRIM_BELOW_LENGTH:
            self.span = int(position.max()) + 1
            width = -(-self.span // 8) * 8
            self.key_width = width if width <= length - length % 8 else length
        self.query_index = sample * self.span + position
        self.key_index = sample * self.key_width + position

    def take(self, arena: ScratchArena, name: str, width: int) -> np.ndarray:
        """Packed scratch, ``width`` columns a row: a view of the first
        ``R`` rows of a buffer sized by the chunk capacity ``n * L``."""
        return arena.take(name, self.lead + (width,),
                          capacity=(self.n * self.length, width))

    def gather(self, arena: ScratchArena, name: str, x: np.ndarray,
               index: np.ndarray | None = None) -> np.ndarray:
        """Rows ``index`` (default: the kept rows) of a dense
        ``[..., width]`` array, packed."""
        width = x.shape[-1]
        out = self.take(arena, name, width)
        # mode="clip" writes straight into ``out`` (the default "raise"
        # buffers); the index never leaves the array.
        np.take(x.reshape(-1, width), self.index if index is None else index, axis=0,
                out=out.reshape(-1, width), mode="clip")
        return out


# -- fused layer kernels -------------------------------------------------
#
# Each kernel takes the arena plus a call-site name, reads raw weight
# ndarrays, and returns an arena-backed result.  Row-wise kernels take
# the chunk's ``rows`` and size their scratch by its capacity.  Inputs
# are never modified unless the kernel documents in-place consumption.


def linear(arena: ScratchArena, name: str, x: np.ndarray,
           weight: np.ndarray, bias: np.ndarray | None,
           relu: bool = False, rows: PackedRows | None = None) -> np.ndarray:
    """Fused ``relu(x @ W + b)``: one GEMM into scratch, bias add and
    ReLU in place.  Matches ``Linear`` (+ ``.relu()``) bit for bit.
    Without ``rows`` (the batch-wide score head) ``x``'s own shape sizes
    the scratch."""
    width = weight.shape[1]
    out = (arena.take(name, x.shape[:-1] + (width,)) if rows is None
           else rows.take(arena, name, width))
    np.matmul(x, weight, out=out)
    if bias is not None:
        out += bias
    if relu:
        np.maximum(out, _F32_ZERO, out=out)
    return out


def layer_norm(arena: ScratchArena, name: str, x: np.ndarray,
               gamma: np.ndarray, beta: np.ndarray, eps: float,
               rows: PackedRows) -> np.ndarray:
    """Fused LayerNorm over the last axis.  Consumes ``x`` in place
    (callers pass scratch they no longer need) and returns it.

    The two-moment sequence (mean, then mean of squared deviations)
    replays the taped ``LayerNorm.forward`` exactly — a one-pass
    ``E[x^2] - mu^2`` rewrite would not be bit-identical in float32 —
    but runs in three scratch buffers with every elementwise step
    in place.
    """
    mu = rows.take(arena, f"{name}.mu", 1)
    np.mean(x, axis=-1, keepdims=True, dtype=np.float32, out=mu)
    np.subtract(x, mu, out=x)  # x is now `centered`
    sq = rows.take(arena, f"{name}.sq", x.shape[-1])
    np.multiply(x, x, out=sq)
    var = rows.take(arena, f"{name}.var", 1)
    np.mean(sq, axis=-1, keepdims=True, dtype=np.float32, out=var)
    var += np.float32(eps)
    np.power(var, np.float32(-0.5), out=var)  # 1 / sqrt(var + eps)
    np.multiply(x, var, out=x)
    np.multiply(x, gamma, out=x)
    x += beta
    return x


def _pairwise_rowmax(v: np.ndarray, arena: ScratchArena, name: str,
                     out: np.ndarray, capacity: tuple[int, int] | None = None) -> None:
    """Row max of ``v [M, W]`` into ``out [M, 1]`` by pairwise halving.

    ``np.amax`` over a short last axis runs a scalar inner loop; folding
    column halves with ``np.maximum`` keeps the work in wide SIMD ops
    (~1.6x faster at L=25).  Max is associative and commutative with no
    rounding, so any combination tree is bit-identical to the sequential
    scan — and a ±0.0 sign disagreement cannot survive the subsequent
    ``exp`` (both shifts produce exactly 1.0).  The halves fold through
    two scratch buffers in turn, sized by ``capacity`` (the largest
    ``[M, W]`` the call site sees; default ``v``'s shape).
    """
    rows, _ = v.shape
    cap_rows, cap_width = v.shape if capacity is None else capacity
    folds = ((f"{name}.fold_a", (cap_rows, cap_width // 2)),
             (f"{name}.fold_b", (cap_rows, cap_width // 4)))
    m, level = v, 0
    while m.shape[1] > 1:
        half = m.shape[1] // 2
        if half == 1:
            nm = out
        else:
            fold, cap = folds[level % 2]
            nm = arena.take(fold, (rows, half), capacity=cap)
        np.maximum(m[:, :half], m[:, half:2 * half], out=nm)
        if m.shape[1] % 2:
            np.maximum(nm[:, 0], m[:, -1], out=nm[:, 0])
        m, level = nm, level + 1
    if m is v:  # W == 1
        np.copyto(out, v)


def softmax_(x: np.ndarray, arena: ScratchArena, name: str,
             capacity: tuple[int, int] | None = None) -> np.ndarray:
    """In-place last-axis max-shifted softmax; matches ``tensor.softmax``
    bit for bit (the shift is the same detached constant).  ``capacity``
    is the largest ``[rows, width]`` the call site sees (default ``x``'s
    own), which sizes the row statistics and folds."""
    width = x.shape[-1]
    rows = x.size // width
    cap_rows, cap_width = (rows, width) if capacity is None else capacity
    stat = arena.take(f"{name}.stat", (rows, 1), capacity=(cap_rows, 1))
    _pairwise_rowmax(x.reshape(rows, width), arena, name, stat, (cap_rows, cap_width))
    stat = stat.reshape(x.shape[:-1] + (1,))
    np.subtract(x, stat, out=x)
    np.exp(x, out=x)
    np.sum(x, axis=-1, keepdims=True, out=stat)
    np.divide(x, stat, out=x)
    return x


def attention(arena: ScratchArena, name: str, x: np.ndarray,
              qkv_weight: np.ndarray, qkv_bias: np.ndarray,
              out_weight: np.ndarray, out_bias: np.ndarray,
              n_heads: int, rows: PackedRows, mask_bias: np.ndarray) -> np.ndarray:
    """Fused multi-head self-attention over packed rows, bit-identical
    on them to ``MultiHeadSelfAttention.forward``.

    The q/k/v projections run as one stacked GEMM over the packed rows
    against the ``[D, 3D]`` ``qkv_weight`` (verified bit-identical per
    column block to three separate GEMMs on this BLAS).  The score block
    covers only the kept-row span (:class:`PackedRows`): q is scattered
    into ``[n, span, H, hd]`` and k/v into ``[n, key_width, H, hd]`` scratch
    — the contiguous layout the taped ``reshape`` produces, because
    matmul bits depend on operand layout — with zeros on the skipped
    rows, whose keys the ``[n, 1, 1, L]`` additive ``mask_bias``
    (``MaskBiasCache``), cut to ``key_width`` columns, gives exactly zero
    weight.  The softmax runs in place on the ``[n, H, span, key_width]``
    scores, and the output projection runs over the packed rows gathered
    back out of the mixed heads.
    """
    dim = x.shape[-1]
    if dim % n_heads:
        raise ValueError(f"dim {dim} is not divisible by n_heads {n_heads}")
    n, length, span, key_width = rows.n, rows.length, rows.span, rows.key_width
    head_dim = dim // n_heads
    scale = np.float32(1.0 / math.sqrt(head_dim))

    qkv = rows.take(arena, f"{name}.qkv", 3 * dim)
    np.matmul(x, qkv_weight, out=qkv)
    qkv += qkv_bias
    qkv = qkv.reshape(-1, 3 * dim)

    heads = []
    for i, (part, size, index) in enumerate((("q", span, rows.query_index),
                                             ("k", key_width, rows.key_index),
                                             ("v", key_width, rows.key_index))):
        h = arena.take(f"{name}.{part}", (n * size, dim), capacity=(n * length, dim))
        h.fill(_F32_ZERO)
        h[index] = qkv[:, i * dim:(i + 1) * dim]
        heads.append(h.reshape(n, size, n_heads, head_dim).transpose(0, 2, 1, 3))
    q, k, v = heads  # [n, H, size, hd] views

    scores = arena.take(f"{name}.scores", (n, n_heads, span, key_width),
                        capacity=(n, n_heads, length, length))
    np.matmul(q, k.transpose(0, 1, 3, 2), out=scores)
    scores *= scale
    scores += mask_bias[..., :key_width]
    softmax_(scores, arena, f"{name}.softmax", capacity=(n * n_heads * length, length))

    mixed_h = arena.take(f"{name}.mixed_h", (n, n_heads, span, head_dim),
                         capacity=(n, n_heads, length, head_dim))
    np.matmul(scores, v, out=mixed_h)
    # Back to [n, span, D] contiguous, as the taped transpose+reshape copies.
    mixed = arena.take(f"{name}.mixed", (n, span, dim), capacity=(n, length, dim))
    np.copyto(mixed.reshape(n, span, n_heads, head_dim), mixed_h.transpose(0, 2, 1, 3))
    packed = rows.gather(arena, f"{name}.mixed_rows", mixed, rows.query_index)
    return linear(arena, f"{name}.out", packed, out_weight, out_bias, rows=rows)


def residual_relu_linear(arena: ScratchArena, name: str, x: np.ndarray,
                         weight: np.ndarray, bias: np.ndarray,
                         rows: PackedRows) -> np.ndarray:
    """Fused ``x + relu(x @ W + b)`` — the ``ResidualBlock`` unit."""
    out = linear(arena, name, x, weight, bias, relu=True, rows=rows)
    np.add(x, out, out=out)  # same operand order as the taped `x + relu`
    return out


def masked_sum_pool(arena: ScratchArena, name: str, x: np.ndarray,
                    rows: PackedRows,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Packed rows -> ``[n, D]`` sequence sums.  Consumes ``x``.

    Each sample's kept rows, times their mask values, added in row
    order, as the taped ``repro.nn.tensor.segment_sum`` pool does.  A
    sample with no kept row pools to zeros.  ``out`` lets the inference
    plan pool chunk results into a slice of a full-batch buffer (so the
    row-count sensitive head GEMM can run once over all rows — see the
    module docstring).
    """
    np.multiply(x, rows.weight.reshape(rows.lead + (1,)), out=x)
    x = x.reshape(-1, x.shape[-1])
    if out is None:
        out = arena.take(name, (rows.n, x.shape[1]))
    bounds = rows.bounds
    for s in range(rows.n):
        start, stop = bounds[s], bounds[s + 1]
        if start == stop:
            out[s] = _F32_ZERO
        else:
            np.add.reduce(x[start:stop], axis=0, out=out[s])
    return out


__all__ = [
    "MASK_PENALTY",
    "MaskBiasCache",
    "PackedRows",
    "ScratchArena",
    "additive_mask_bias",
    "attention",
    "layer_norm",
    "linear",
    "masked_sum_pool",
    "residual_relu_linear",
    "softmax_",
]
