"""The layer kernels: one forward per layer, and its backward beside it.

Every layer of the Fig. 7 trunk — ``Linear`` (with and without ReLU),
``LayerNorm``, ``ResidualBlock``, ``MultiHeadSelfAttention`` and the
masked pool — has one forward, the packed kernel here, which training
and ``TLPModel.predict`` both run.  A kernel reads raw float32 ndarrays
and writes into what its scratch hands out: ``predict`` passes the
model's persistent :class:`ScratchArena` (pooled buffers, inputs
consumed in place where nobody reads them again, so a warm call
allocates no large buffer); every other call passes a fresh
:class:`TapeScratch`, exact-shape arrays the layer's tape node owns and
its backward reads back by name.  With grad enabled a layer records one
tape node (:func:`repro.nn.tensor.track_layer`) whose backward is the
``*_backward`` kernel beside its forward.

**Which rows are computed.**  A padding row (mask 0) changes no score:
the masked softmax gives its key exactly zero weight next to any real
key, and the masked pool drops its output.  :class:`PackedRows` gathers
the rows of a ``[n, L]`` mask whose value is non-zero once, and every
row-wise layer runs as one GEMM or ufunc pass over those ``R`` rows.
The trunk's row-wise prefix — ``up1``, ``up2`` and the attention's q, k
and v projections — reads nothing but a row's features, and a batch's
candidates share most of their primitives, so it runs once per
byte-distinct feature row (:class:`DistinctRows`, ``U`` rows: ~3% of
a search batch's kept rows) and its results are gathered back to the
packed rows, the residual join's input, and into the attention block.
The attention block (``q @ kᵀ``, softmax, ``attn @ v``) scores only the
kept-row span, ``span`` queries by ``key_width`` keys, zeros on the
skipped rows.  The pool adds each sample's kept rows, times their mask
values, in row order; a sample with no kept row pools to zeros.  Two
row rules keep the dense layout's BLAS call shapes: no GEMM over
``L``-row sequences has 1 row (a 1-row GEMM falls to a gemv kernel with
other accumulation bits) — a mask with fewer than 2 kept rows runs all
its rows, and the prefix's tables carry a spare row besides the
distinct ones — and at ``L == 1`` packed activations and prefix tables
keep a ``[rows, 1, width]`` shape, each row its own gemv.

**The backward rules.**  Every backward kernel runs the float32 ops of
the layer's op-by-op chain (``x @ W + b``, the LayerNorm chain, the
masked softmax, the dense pool), in tape order, on the rows it keeps;
``tests/test_packed_trunk.py`` holds the trunk to that chain byte for
byte.  Measured with this BLAS (scipy-openblas, one thread):

* Forward GEMMs run flat over the ``R`` packed rows, or over the ``U``
  distinct ones and the spare: with at least 2 rows a row's bytes
  depend neither on how many rows the call has nor on where the row
  sits, so they are the dense per-sample GEMM's bytes on every weight
  shape of the repo's model configs (``tests/test_blas_rows.py`` states
  this rule and names the OpenBLAS kernel it was measured on).
* Input-gradient GEMMs run over the rows zero-padded into whole
  ``L``-row blocks (``PackedRows.blocks``), the dense call shape; one
  flat 2-D GEMM is not bit-equal (hidden 48: 0 of 10 trials).
* Weight gradients add one ``x_sᵀ @ g_s`` GEMM per sample, in sample
  order, skipping empty samples: the float32 sequence of the dense
  ``(xᵀ @ g).sum(axis=0)``.  Pad and skipped rows carry zero gradients,
  and a float32 sum starts from +0.0, so they change no sum.
* q, k and v are three GEMMs, forward and backward.  The attention
  input's gradient is the residual join's copy of the output gradient
  plus the q, k and v input gradients, added in that order.
* Subnormal gradients are flushed at the exp inside softmax and at both
  operand gradients of ``q @ kᵀ`` and of ``attn @ v``
  (:func:`repro.nn.tensor._flush_subnormals` says why).
* A constant input (the feature block) gets no input-gradient GEMM.
  Every gradient returned is a fresh C-contiguous float32 array.

**Bounded scratch.**  Under an arena every packed buffer is sized by
the chunk capacity ``n * L`` and sliced to ``R``, every prefix table by
the batch capacity ``N * L`` (plus the spare row) and sliced to
``U + 1``, and every span-trimmed attention buffer is a view of one
sized by the full ``L x L`` block; the arena holds one buffer per call
site, grown to the largest request, so its size is bounded by the
largest chunk and batch whatever the masks and batch sizes are.  Single-column GEMMs (the score head)
are erratic across small row counts on this BLAS, so ``predict`` runs
the head once over the whole batch, at the row count ``forward`` uses.
"""

from __future__ import annotations

import functools
import math
import mmap
from typing import Sequence

import numpy as np

from repro.nn.tensor import _flush_subnormals
from repro.utils.rng import stream

_F32_ZERO = np.float32(0.0)

#: Additive logit for masked attention keys: large enough that float32
#: softmax assigns them exactly zero weight against any real logit.
MASK_PENALTY = np.float32(1e9)

#: Sequences shorter than this have their attention block trimmed to the
#: kept-row span (:class:`PackedRows`); longer ones keep the full block,
#: whose GEMM bits the trimmed one does not reproduce on this BLAS.
TRIM_BELOW_LENGTH = 32


def _mapped(size: int) -> np.ndarray:
    """``size`` float32s on fresh anonymous pages, never huge pages."""
    pages = mmap.mmap(-1, max(size, 1) * 4)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(pages, dtype=np.float32, count=size)


class ScratchArena:
    """A pool of preallocated float32 buffers, one per call-site name.

    ``take(name, shape)`` returns a ``shape`` view of that name's buffer,
    allocating only when the name is new or the buffer is too small for
    the request; a buffer only grows, so callers hit the pool on every
    call after their largest one, whatever the batch size
    (``TLPModel.predict``).  A call site whose shape varies with the
    masks passes the largest shape it will ask for as ``capacity``, and
    the buffer is sized by that (packed rows, :meth:`PackedRows.take`,
    prefix tables, :meth:`DistinctRows.take`, and the span-trimmed
    attention block).  Names are per call site, and
    no call site holds one name at two live shapes, so two live buffers
    never alias.  Contents are undefined on ``take``; every kernel fully
    overwrites what it takes.  ``reuse`` lets a kernel consume an input
    in place.

    Buffers are sized by capacity but only partly written (a prefix
    table by the batch's rows, filled to its distinct ones), so each is
    an anonymous mapping kept out of transparent huge pages: only the
    4 KB pages a call writes cost memory, not a 2 MB page per touch.

    ``hits`` / ``misses`` count pool probes and back the no-allocation
    acceptance test: a steady-state ``predict`` call must be all hits.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def take(self, name: str, shape: tuple[int, ...],
             capacity: tuple[int, ...] | None = None) -> np.ndarray:
        used = math.prod(shape)
        size = used if capacity is None else max(used, math.prod(capacity))
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < size:
            self.misses += 1
            buf = self._buffers[name] = _mapped(size)
        else:
            self.hits += 1
        return buf[:used].reshape(shape)

    def reuse(self, name: str, x: np.ndarray) -> np.ndarray:
        """Where an in-place step on ``x`` writes: ``x`` itself (serving
        reads no intermediate twice)."""
        return x

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


class TapeScratch:
    """Scratch of one taped layer call: every ``take`` is a new
    exact-shape array, kept under its name for the layer's backward
    kernel (``scratch[name]``), and ``reuse`` never hands back its input,
    so a kernel leaves its inputs and every intermediate intact."""

    def __init__(self) -> None:
        self._saved: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...],
             capacity: tuple[int, ...] | None = None) -> np.ndarray:
        buf = np.empty(shape, dtype=np.float32)
        self._saved[name] = buf
        return buf

    def reuse(self, name: str, x: np.ndarray) -> np.ndarray:
        return self.take(name, x.shape)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._saved[name]


Scratch = ScratchArena | TapeScratch


def additive_mask_bias(mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``[N, L]`` padding mask -> ``[N, 1, 1, L]`` additive attention bias.

    The one home of the mask -> float conversion: 0.0 on real rows,
    ``-MASK_PENALTY`` on padding; cut to a key width
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
    """:func:`additive_mask_bias` into a held buffer.

    Every ``get`` recomputes the bias from the mask's current contents
    (microseconds), so a mask buffer reused or mutated in place always
    gets a fresh bias.  A batch of no more rows at the same length (the
    ragged last chunk of a ``predict`` call) reuses the buffer's first
    rows, so steady-state serving and training allocate nothing here.
    """

    def __init__(self) -> None:
        self._bias: np.ndarray | None = None

    def get(self, mask: np.ndarray) -> np.ndarray:
        n, length = mask.shape
        held = self._bias
        if held is None or held.shape[0] < n or held.shape[3] != length:
            held = self._bias = np.empty((n, 1, 1, length), dtype=np.float32)
        return additive_mask_bias(mask, out=held if held.shape[0] == n else held[:n])


class PackedRows:
    """The rows of one ``[n, L]`` mask that the layer kernels compute.

    ``index`` holds the flat ids (``s * L + l``) of the rows whose mask
    is non-zero, in row order; ``weight`` their mask values; sample
    ``s`` owns packed rows ``bounds[s]:bounds[s + 1]``.  A mask with
    fewer than 2 kept rows keeps all its rows (row rule 1 of the module
    docstring).  Packed activations are ``lead + (width,)`` arrays,
    ``lead`` being ``(R,)``, or ``(R, 1)`` at ``L == 1``; input-gradient
    GEMMs pad them to whole ``L``-row blocks, ``blocks + (width,)``.

    The attention block scores only the kept-row span.  ``span`` is 1 +
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

    def take(self, arena: Scratch, name: str, width: int) -> np.ndarray:
        """Packed scratch, ``width`` columns a row: under an arena a view
        of the first ``R`` rows of a buffer sized by the capacity ``n * L``."""
        return arena.take(name, self.lead + (width,),
                          capacity=(self.n * self.length, width))

    def gather(self, arena: Scratch, name: str, x: np.ndarray,
               index: np.ndarray | None = None) -> np.ndarray:
        """Rows ``index`` (default: the kept rows) of a dense
        ``[..., width]`` array, or of a table, packed."""
        return gather_rows(arena, name, x, self.index if index is None else index,
                           self.length, self.n * self.length)


@functools.lru_cache(maxsize=None)
def _row_hash(width: int) -> np.ndarray:
    """Odd 64-bit multipliers, one per uint32 word of a row: a row's
    hash is its words' dot product with them, modulo 2**64."""
    draw = stream("nn.functional.row_hash").integers(0, 2**64, size=width, dtype=np.uint64)
    return draw | np.uint64(1)


def _distinct(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of the distinct rows of a uint32 ``[R, K]``
    matrix: ``words[first[inverse]] == words``.  Rows are grouped by a
    64-bit hash, in hash order, any row of a group standing for it (so an
    unstable sort and one run-length pass), and the grouping is checked
    against the bytes; should two unequal rows share a hash, the rows
    themselves are sorted instead."""
    hashes = words @ _row_hash(words.shape[1])
    order = np.argsort(hashes)
    ranked = hashes[order]
    head = np.empty(ranked.shape[0], dtype=bool)  # where each run of one hash starts
    head[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    first = order[head]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(head) - 1
    if not np.array_equal(words[first[inverse]], words):
        rows = words.view(np.dtype((np.void, words.shape[1] * words.itemsize)))
        _, first, inverse = np.unique(rows.reshape(-1), return_index=True,
                                      return_inverse=True)
    return first, inverse.reshape(-1)


class DistinctRows:
    """Which packed rows are distinct, and tables of one row per distinct row.

    The trunk's prefix runs once per distinct row of the packed rows ``x``
    (``lead + (K,)``): ``values`` holds the ``count`` distinct rows, then
    one spare row of zeros, and ``inverse`` each packed row's place among
    them.  Distinct means unequal bytes, so ``-0.0`` and ``0.0`` rows
    stay apart.  A table computed from ``values`` (:meth:`take`) has the
    same ``count + 1`` rows: the spare row gives every prefix GEMM at
    least 2 rows (row rule 1: a 1-row GEMM is a gemv), and it is the row
    the attention block's skipped positions read (:func:`attention`).
    Tables keep the packed lead, ``(count + 1, 1)`` at ``L == 1`` (row
    rule 2), and under an arena are sized by ``capacity`` packed rows.
    """

    __slots__ = ("values", "count", "inverse", "lead", "capacity")

    def __init__(self, arena: Scratch, x: np.ndarray, capacity: int):
        kept, width = x.shape[0], x.shape[-1]
        rows = x.reshape(kept, width)
        first, self.inverse = _distinct(rows.view(np.uint32))
        self.count, self.capacity = first.shape[0], capacity
        self.lead = (self.count + 1,) + x.shape[1:-1]
        self.values = self.take(arena, "x.distinct", width)
        values = self.values.reshape(-1, width)
        np.take(rows, first, axis=0, out=values[:-1], mode="clip")
        values[-1] = _F32_ZERO

    def take(self, arena: Scratch, name: str, width: int) -> np.ndarray:
        """Table scratch, ``width`` columns: one row per distinct row and
        the spare row."""
        return arena.take(name, self.lead + (width,), capacity=(self.capacity + 1, width))


def gather_rows(arena: Scratch, name: str, x: np.ndarray, index: np.ndarray,
                length: int, capacity: int) -> np.ndarray:
    """Rows ``index`` of a ``[..., width]`` array, packed for sequences of
    ``length`` rows (lead ``(R,)``, or ``(R, 1)`` at ``L == 1``), in
    scratch sized by ``capacity`` rows."""
    width, kept = x.shape[-1], index.shape[0]
    lead = (kept, 1) if length == 1 else (kept,)
    out = arena.take(name, lead + (width,), capacity=(capacity, width))
    # mode="clip" writes straight into ``out`` (the default "raise"
    # buffers); the index never leaves the array.
    np.take(x.reshape(-1, width), index, axis=0, out=out.reshape(-1, width), mode="clip")
    return out


def _take(arena: Scratch, name: str, x: np.ndarray, width: int,
          rows: PackedRows | DistinctRows | None) -> np.ndarray:
    """Scratch for a row-wise result of ``x``: packed rows are sized by
    the chunk capacity, distinct rows by the batch capacity, plain rows
    (the score head) by ``x``'s shape."""
    if rows is None:
        return arena.take(name, x.shape[:-1] + (width,))
    return rows.take(arena, name, width)


def _lead_axes(a: np.ndarray) -> tuple[int, ...]:
    return tuple(range(a.ndim - 1))


# -- linear ------------------------------------------------------------
#
# A forward kernel takes the scratch and a call-site name and returns a
# scratch-backed result; it writes into an input only through
# ``scratch.reuse``, which only an arena honours.


def linear(arena: Scratch, name: str, x: np.ndarray,
           weight: np.ndarray, bias: np.ndarray | None,
           relu: bool = False, rows: PackedRows | None = None) -> np.ndarray:
    """``relu(x @ W + b)``: one GEMM into scratch, bias add and ReLU in
    place.  Packed rows run one flat GEMM over the ``R`` kept rows,
    distinct rows one over a table's rows."""
    out = _take(arena, name, x, weight.shape[1], rows)
    np.matmul(x, weight, out=out)
    if bias is not None:
        out += bias
    if relu:
        np.maximum(out, _F32_ZERO, out=out)
    return out


def _input_grad(g: np.ndarray, weight: np.ndarray,
                rows: PackedRows | None) -> np.ndarray:
    """``g @ Wᵀ``; packed rows run it zero-padded into whole ``L``-row
    blocks, the dense call shape."""
    weight_t = weight.swapaxes(-1, -2)
    if rows is None:
        return g @ weight_t
    width, kept = g.shape[-1], rows.index.shape[0]
    blocks = np.zeros(rows.blocks + (width,), dtype=np.float32)
    blocks.reshape(-1, width)[:kept] = g.reshape(-1, width)
    dx = (blocks @ weight_t).reshape(-1, weight.shape[0])
    return dx[:kept].reshape(rows.lead + (weight.shape[0],))


def _weight_grad(x: np.ndarray, g: np.ndarray, rows: PackedRows | None) -> np.ndarray:
    """``xᵀ @ g`` over every row; packed rows add one GEMM per sample,
    in sample order, into one ``[K, E]`` buffer, skipping empty samples."""
    x2 = x.reshape(-1, x.shape[-1])
    g2 = g.reshape(-1, g.shape[-1])
    if rows is None:
        return x2.T @ g2
    out = np.zeros((x2.shape[1], g2.shape[1]), dtype=np.float32)
    tmp = np.empty_like(out)
    bounds = rows.bounds
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if start < stop:
            np.matmul(x2[start:stop].T, g2[start:stop], out=tmp)
            out += tmp
    return out


def linear_backward(g: np.ndarray, x: np.ndarray, weight: np.ndarray,
                    rows: PackedRows | None = None, out: np.ndarray | None = None,
                    need_x: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients ``(dx, dW, db)`` of :func:`linear` given its output
    gradient ``g``; ``out`` is the ReLU output when the forward ran one
    (its positive entries pass the gradient), and ``dx`` is None unless
    ``need_x``."""
    if out is not None:
        g = g * (out > 0)
    dx = _input_grad(g, weight, rows) if need_x else None
    return dx, _weight_grad(x, g, rows), g.sum(axis=_lead_axes(g))


# -- LayerNorm ---------------------------------------------------------


def layer_norm(arena: Scratch, name: str, x: np.ndarray,
               gamma: np.ndarray, beta: np.ndarray, eps: float,
               rows: PackedRows | None = None) -> np.ndarray:
    """LayerNorm over the last axis; under an arena it consumes ``x``.

    Two moments (mean, then mean of squared deviations; a one-pass
    ``E[x^2] - mu^2`` would not be bit-identical) in three buffers: the
    row statistic (the mean, then ``1/sqrt(var + eps)``), the squares
    and ``var + eps``.  ``centered`` and then the output overwrite ``x``
    under an arena; the backward reads ``centered`` and both statistics.
    """
    inv_std = _take(arena, f"{name}.inv_std", x, 1, rows)
    np.mean(x, axis=-1, keepdims=True, dtype=np.float32, out=inv_std)
    centered = arena.reuse(f"{name}.centered", x)
    np.subtract(x, inv_std, out=centered)
    squares = _take(arena, f"{name}.squares", x, x.shape[-1], rows)
    np.multiply(centered, centered, out=squares)
    var = _take(arena, f"{name}.var", x, 1, rows)
    np.mean(squares, axis=-1, keepdims=True, dtype=np.float32, out=var)
    var += np.float32(eps)
    np.power(var, np.float32(-0.5), out=inv_std)
    out = arena.reuse(name, centered)
    np.multiply(centered, inv_std, out=out)
    np.multiply(out, gamma, out=out)
    out += beta
    return out


def layer_norm_backward(g: np.ndarray, scratch: TapeScratch, name: str,
                        gamma: np.ndarray, need_x: bool = True
                        ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients ``(dx, dgamma, dbeta)`` of :func:`layer_norm`.

    The op-level chain ``mu = mean(x)``, ``c = x - mu``,
    ``var = mean(c * c)``, ``p = (var + eps) ** -0.5``, ``n = c * p``,
    ``n * gamma + beta`` backpropagated in tape order: ``c`` gets
    ``g_n * p`` and then the squares' term twice, ``x`` gets ``g_c``
    and then the mean's term.  ``normed`` is recomputed as ``c * p``.
    """
    centered = scratch[f"{name}.centered"]
    inv_std = scratch[f"{name}.inv_std"]
    var_eps = scratch[f"{name}.var"]
    lead = _lead_axes(g)
    d_beta = g.sum(axis=lead)
    d_gamma = (g * (centered * inv_std)).sum(axis=lead)
    if not need_x:
        return None, d_gamma, d_beta
    inv_width = np.float32(1.0 / g.shape[-1])
    g_normed = g * gamma
    g_centered = g_normed * inv_std
    g_inv_std = (g_normed * centered).sum(axis=-1, keepdims=True)
    g_var = g_inv_std * np.float32(-0.5) * var_eps ** np.float32(-1.5)
    g_squares = (g_var * inv_width) * centered
    g_centered += g_squares
    g_centered += g_squares
    g_mean = (-g_centered).sum(axis=-1, keepdims=True)
    return g_centered + g_mean * inv_width, d_gamma, d_beta


# -- attention ---------------------------------------------------------


def _pairwise_rowmax(v: np.ndarray, arena: Scratch, name: str,
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


def softmax_(x: np.ndarray, arena: Scratch, name: str,
             capacity: tuple[int, int] | None = None) -> np.ndarray:
    """Last-axis softmax shifted by the row max.  Leaves
    ``e = exp(x - max)`` in ``x`` and its row sums ``z`` in
    ``{name}.stat``, and returns ``e / z`` in ``{name}.probs`` (``x``
    itself under an arena).  ``capacity``, the largest ``[rows, width]``
    the call site sees, sizes the row statistics and folds."""
    width = x.shape[-1]
    rows = x.size // width
    cap_rows, cap_width = (rows, width) if capacity is None else capacity
    stat = arena.take(f"{name}.stat", (rows, 1), capacity=(cap_rows, 1))
    _pairwise_rowmax(x.reshape(rows, width), arena, name, stat, (cap_rows, cap_width))
    stat = stat.reshape(x.shape[:-1] + (1,))
    np.subtract(x, stat, out=x)
    np.exp(x, out=x)
    np.sum(x, axis=-1, keepdims=True, out=stat)
    probs = arena.reuse(f"{name}.probs", x)
    np.divide(x, stat, out=probs)
    return probs


def softmax_backward(g: np.ndarray, e: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Gradient of ``e / z``, ``e = exp(x - max)``, ``z = e.sum(-1)``,
    with respect to ``x``: the quotient's term for ``e`` first, then the
    sum's, then the exp, whose subnormal products are flushed."""
    g_e = g / z
    g_e += (-g * e / (z * z)).sum(axis=-1, keepdims=True)
    return _flush_subnormals(g_e * e)


def _heads(flat: np.ndarray, n: int, n_heads: int) -> np.ndarray:
    """``[n * size, D]`` -> the ``[n, heads, size, head_dim]`` view."""
    dim = flat.shape[-1]
    return flat.reshape(n, -1, n_heads, dim // n_heads).transpose(0, 2, 1, 3)


def _table_rows(slots: int, index: np.ndarray, source: np.ndarray, spare: int) -> np.ndarray:
    """The table row each of ``slots`` block rows reads: ``source`` at the
    packed rows' places ``index``, the spare row everywhere else."""
    where = np.full(slots, spare)
    where[index] = source
    return where


def attention(arena: Scratch, name: str, x: np.ndarray, qkv: Sequence[np.ndarray],
              source: np.ndarray, out_proj: tuple[np.ndarray, np.ndarray],
              n_heads: int, rows: PackedRows, mask_bias: np.ndarray) -> np.ndarray:
    """``x + MHSA(x)`` over packed rows: self-attention and its residual join.

    ``qkv`` holds the q, k and v projections of ``x``'s distinct rows,
    tables with a spare last row (:class:`DistinctRows`), and ``source``
    each packed row's row in them; ``out_proj`` is the output
    ``(weight, bias)``.  The score block covers only the kept-row span:
    each table's rows are gathered into ``[n, span, H, hd]`` (q) and
    ``[n, key_width, H, hd]`` (k, v) scratch (contiguous: matmul bits
    depend on operand layout), the skipped rows reading the spare row,
    which the kernel zeroes; the additive ``[n, 1, 1, L]``
    ``mask_bias`` gives their keys exactly zero weight.
    """
    dim = x.shape[-1]
    if dim % n_heads:
        raise ValueError(f"dim {dim} is not divisible by n_heads {n_heads}")
    n, length, span, key_width = rows.n, rows.length, rows.span, rows.key_width
    head_dim = dim // n_heads
    scale = np.float32(1.0 / math.sqrt(head_dim))

    tables = [table.reshape(-1, dim) for table in qkv]
    spare = tables[0].shape[0] - 1
    query_rows = _table_rows(n * span, rows.query_index, source, spare)
    key_rows = _table_rows(n * key_width, rows.key_index, source, spare)
    heads = []
    for part, where, table in zip("qkv", (query_rows, key_rows, key_rows), tables):
        table[spare] = _F32_ZERO
        h = arena.take(f"{name}.{part}", (where.shape[0], dim), capacity=(n * length, dim))
        np.take(table, where, axis=0, out=h, mode="clip")
        heads.append(_heads(h, n, n_heads))
    q, k, v = heads  # [n, H, size, hd] views

    scores = arena.take(f"{name}.scores", (n, n_heads, span, key_width),
                        capacity=(n, n_heads, length, length))
    np.matmul(q, k.transpose(0, 1, 3, 2), out=scores)
    scores *= scale
    scores += mask_bias[..., :key_width]
    probs = softmax_(scores, arena, f"{name}.softmax", capacity=(n * n_heads * length, length))

    mixed_h = arena.take(f"{name}.mixed_h", (n, n_heads, span, head_dim),
                         capacity=(n, n_heads, length, head_dim))
    np.matmul(probs, v, out=mixed_h)
    # Back to [n, span, D] contiguous, the layout the packed rows leave.
    mixed = arena.take(f"{name}.mixed", (n, span, dim), capacity=(n, length, dim))
    np.copyto(mixed.reshape(n, span, n_heads, head_dim), mixed_h.transpose(0, 2, 1, 3))
    packed = rows.gather(arena, f"{name}.mixed_rows", mixed, rows.query_index)
    out = linear(arena, f"{name}.out", packed, *out_proj, rows=rows)
    np.add(x, out, out=out)  # the residual join, `x + attention` order
    return out


def attention_backward(g: np.ndarray, scratch: TapeScratch, name: str, x: np.ndarray,
                       weights: Sequence[np.ndarray], n_heads: int, rows: PackedRows,
                       need_x: bool = True) -> list[np.ndarray | None]:
    """Gradients of :func:`attention`: ``[dx, dWq, dbq, dWk, dbk, dWv,
    dbv, dWo, dbo]``, ``weights`` being the q, k, v and output weights.

    ``dx`` starts as the residual join's copy of ``g`` and then adds the
    q, k and v input gradients, in that order.  The four activation
    products flush their subnormal gradients, as does the softmax's exp.
    """
    n, span, key_width = rows.n, rows.span, rows.key_width
    dim = x.shape[-1]
    scale = np.float32(1.0 / math.sqrt(dim // n_heads))
    d_mixed, d_out_w, d_out_b = linear_backward(
        g, scratch[f"{name}.mixed_rows"], weights[3], rows)
    g_mixed = np.zeros((n * span, dim), dtype=np.float32)
    g_mixed[rows.query_index] = d_mixed.reshape(-1, dim)
    g_mixed = np.ascontiguousarray(_heads(g_mixed, n, n_heads))
    q, k, v = (_heads(scratch[f"{name}.{part}"], n, n_heads) for part in "qkv")
    probs = scratch[f"{name}.softmax.probs"]
    z = scratch[f"{name}.softmax.stat"].reshape(probs.shape[:-1] + (1,))

    g_probs = _flush_subnormals(g_mixed @ v.swapaxes(-1, -2))
    g_v = _flush_subnormals(probs.swapaxes(-1, -2) @ g_mixed)
    g_scores = softmax_backward(g_probs, scratch[f"{name}.scores"], z) * scale
    g_q = _flush_subnormals(g_scores @ k)
    g_k = _flush_subnormals(q.swapaxes(-1, -2) @ g_scores)

    packed = (
        (g_q.transpose(0, 2, 1, 3).reshape(n * span, dim), rows.query_index),
        (g_k.transpose(0, 3, 1, 2).reshape(n * key_width, dim), rows.key_index),
        (g_v.transpose(0, 2, 1, 3).reshape(n * key_width, dim), rows.key_index),
    )
    dx = g.copy() if need_x else None
    grads: list[np.ndarray | None] = [dx]
    for (dense, index), weight in zip(packed, weights):
        d_in, d_w, d_b = linear_backward(dense[index].reshape(rows.lead + (dim,)),
                                         x, weight, rows, need_x=need_x)
        if need_x:
            dx += d_in
        grads += [d_w, d_b]
    return grads + [d_out_w, d_out_b]


# -- residual block and pool -------------------------------------------


def residual_relu_linear(arena: Scratch, name: str, x: np.ndarray,
                         weight: np.ndarray, bias: np.ndarray,
                         rows: PackedRows | None = None) -> np.ndarray:
    """``x + relu(x @ W + b)`` — the ``ResidualBlock`` unit; the branch
    output is kept for the backward except under an arena."""
    branch = linear(arena, name, x, weight, bias, relu=True, rows=rows)
    out = arena.reuse(f"{name}.join", branch)
    np.add(x, branch, out=out)
    return out


def residual_relu_linear_backward(g: np.ndarray, scratch: TapeScratch, name: str,
                                  x: np.ndarray, weight: np.ndarray,
                                  rows: PackedRows | None = None, need_x: bool = True
                                  ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients ``(dx, dW, db)`` of :func:`residual_relu_linear`: the
    join's copy of ``g`` plus the branch's input gradient."""
    d_in, d_w, d_b = linear_backward(g, x, weight, rows, out=scratch[name], need_x=need_x)
    return (g + d_in if need_x else None), d_w, d_b


def masked_sum_pool(arena: Scratch, name: str, x: np.ndarray,
                    rows: PackedRows) -> np.ndarray:
    """Packed rows -> ``[n, D]`` sequence sums; under an arena it
    consumes ``x``.  Each sample's kept rows, times their mask values,
    added in row order; a sample with no kept row pools to zeros."""
    weighted = arena.reuse(f"{name}.weighted", x)
    np.multiply(x, rows.weight.reshape(rows.lead + (1,)), out=weighted)
    weighted = weighted.reshape(-1, weighted.shape[-1])
    out = arena.take(name, (rows.n, weighted.shape[1]))
    bounds = rows.bounds
    for s in range(rows.n):
        start, stop = bounds[s], bounds[s + 1]
        if start == stop:
            out[s] = _F32_ZERO
        else:
            np.add.reduce(weighted[start:stop], axis=0, out=out[s])
    return out


def masked_sum_pool_backward(g: np.ndarray, rows: PackedRows) -> np.ndarray:
    """Gradient of :func:`masked_sum_pool`: each sample's row of ``g``
    on each of its kept rows, times their mask values."""
    dx = np.repeat(g, np.diff(rows.bounds), axis=0)
    dx *= rows.weight.reshape(-1, 1)
    return dx.reshape(rows.lead + (g.shape[-1],))


__all__ = [
    "MASK_PENALTY",
    "DistinctRows",
    "MaskBiasCache",
    "PackedRows",
    "ScratchArena",
    "TapeScratch",
    "additive_mask_bias",
    "attention",
    "attention_backward",
    "gather_rows",
    "layer_norm",
    "layer_norm_backward",
    "linear",
    "linear_backward",
    "masked_sum_pool",
    "masked_sum_pool_backward",
    "residual_relu_linear",
    "residual_relu_linear_backward",
    "softmax_",
    "softmax_backward",
]
