"""The layer kernels (repro.nn.functional).

Two contracts:

1. Bit-identity -- every kernel reproduces, on the rows it computes,
   the float32 bits of its layer's op-level chain in raw ``Tensor`` ops
   (``nn_reference``), forward and backward.
2. Allocation discipline -- the :class:`ScratchArena` pools buffers by
   (name, shape), so a warm call sequence allocates nothing, and the
   hit/miss counters prove it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nn_reference as ref
from repro.nn import MaskBiasCache, ScratchArena
from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import LayerNorm, Linear, ResidualBlock
from repro.nn.tensor import Tensor
from repro.utils.rng import stream

_RNG = stream("test.nn.functional")


def _x(*shape):
    return _RNG.standard_normal(shape).astype(np.float32)


# -- ScratchArena ------------------------------------------------------


def test_arena_pools_by_name_and_grows():
    arena = ScratchArena()
    a = arena.take("a", (4, 3))
    assert arena.misses == 1 and arena.hits == 0
    assert np.shares_memory(arena.take("a", (4, 3)), a)  # same site -> pooled buffer
    assert arena.hits == 1
    b = arena.take("b", (4, 3))  # same shape, different site -> no alias
    assert not np.shares_memory(a, b)
    c = arena.take("a", (2, 3))  # same site, smaller -> a view of its buffer
    assert c.shape == (2, 3) and np.shares_memory(a, c)
    assert arena.misses == 2 and arena.nbytes == (12 + 12) * 4
    d = arena.take("a", (5, 3))  # same site, larger -> the buffer grows
    assert d.shape == (5, 3) and arena.misses == 3
    assert arena.take("a", (2, 2), capacity=(4, 3)).shape == (2, 2)  # fits: a hit
    assert arena.misses == 3
    assert arena.n_buffers == 2
    assert arena.nbytes == (15 + 12) * 4


def test_arena_reset_and_clear():
    arena = ScratchArena()
    arena.take("a", (8,))
    arena.take("a", (8,))
    arena.reset_counters()
    assert (arena.hits, arena.misses) == (0, 0)
    assert arena.n_buffers == 1  # counters reset, buffers kept
    arena.clear()
    assert arena.n_buffers == 0
    assert arena.take("a", (8,)) is not None
    assert arena.misses == 1


# -- mask bias ---------------------------------------------------------


def test_additive_mask_bias_values_and_shape():
    mask = np.array([[1, 1, 0], [1, 0, 0]], dtype=np.float32)
    bias = F.additive_mask_bias(mask)
    assert bias.shape == (2, 1, 1, 3)
    assert bias.dtype == np.float32
    expected = (mask - np.float32(1.0)) * F.MASK_PENALTY
    assert np.array_equal(bias.reshape(2, 3), expected)


def test_mask_bias_cache_recomputes_into_held_buffer():
    cache = MaskBiasCache()
    mask = np.array([[1.0, 0.0]], dtype=np.float32)
    bias1 = cache.get(mask)
    assert np.array_equal(bias1, F.additive_mask_bias(mask))
    # Another mask of the same geometry recomputes into the held
    # buffer — zero steady-state allocation.
    other = np.array([[0.0, 1.0]], dtype=np.float32)
    bias2 = cache.get(other)
    assert bias2 is bias1  # same buffer, new contents
    assert np.array_equal(bias2, F.additive_mask_bias(other))
    # New geometry allocates a fresh buffer.
    wide = np.ones((1, 5), dtype=np.float32)
    assert cache.get(wide).shape == (1, 1, 1, 5)


def test_mask_bias_cache_sees_in_place_mutation():
    """Regression: the cache used to memoize by mask identity, so a mask
    buffer refilled in place (a pooled gather buffer) got a stale bias."""
    cache = MaskBiasCache()
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]], dtype=np.float32)
    cache.get(mask)
    mask[:] = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]], dtype=np.float32)
    assert np.array_equal(cache.get(mask), F.additive_mask_bias(mask))


def test_attention_module_shares_the_cache():
    att = MultiHeadSelfAttention(8, 2, rng=stream("test.nn.functional.att"))
    mask = np.ones((2, 3), dtype=np.float32)
    assert att.mask_bias(mask) is att.mask_bias(mask)


# -- kernel bit-identity against the op-level reference --------------


def _kept(a: np.ndarray, rows: F.PackedRows) -> np.ndarray:
    """The rows of a dense ``[..., width]`` array that ``rows`` keeps."""
    return a.reshape(-1, a.shape[-1])[rows.index]


def test_linear_kernel_matches_taped_linear():
    """Forward and backward of ``x @ W + b`` (and its ReLU) on plain rows."""
    arena = ScratchArena()
    layer = Linear(6, 10, rng=stream("test.nn.functional.linear"))
    x = _x(4, 5, 6)
    for relu in (False, True):
        xt = Tensor(x, requires_grad=True)
        layer.zero_grad()
        taped = ref.linear(xt, layer, relu=relu)
        g = _x(4, 5, 10)
        taped.backward(g)
        fused = F.linear(arena, "lin", x, layer.weight.data, layer.bias.data, relu=relu)
        assert np.array_equal(fused, taped.data)
        dx, dw, db = F.linear_backward(g.reshape(20, 10), x.reshape(20, 6), layer.weight.data,
                                       out=fused.reshape(20, 10) if relu else None)
        assert dx.tobytes() == xt.grad.tobytes()
        assert db.tobytes() == layer.bias.grad.tobytes()
        assert np.allclose(dw, layer.weight.grad, atol=1e-5)  # one GEMM, not per sample


def test_layer_norm_kernel_matches_taped_layer_norm():
    """Forward and backward, on the kept rows, with any gain and shift."""
    layer = LayerNorm(12)
    layer.gamma.data = _x(12)
    layer.beta.data = _x(12)
    x = _x(3, 5, 12)
    xt = Tensor(x, requires_grad=True)
    taped = ref.layer_norm(xt, layer)
    g = _x(3, 5, 12)
    mask = (_RNG.random((3, 5)) < 0.6).astype(np.float32)
    rows = F.PackedRows(mask)
    g *= mask[..., None]  # skipped rows get no gradient, as in the model
    taped.backward(g)
    for scratch in (ScratchArena(), F.TapeScratch()):
        fused = F.layer_norm(scratch, "ln", rows.gather(scratch, "x", x), layer.gamma.data,
                             layer.beta.data, layer.eps, rows)
        assert np.array_equal(fused, _kept(taped.data, rows))
    # ``scratch`` is now the TapeScratch, whose arrays the backward reads.
    dx, d_gamma, d_beta = F.layer_norm_backward(_kept(g, rows), scratch, "ln",
                                                layer.gamma.data)
    assert dx.tobytes() == _kept(xt.grad, rows).tobytes()
    assert d_gamma.tobytes() == layer.gamma.grad.tobytes()
    assert d_beta.tobytes() == layer.beta.grad.tobytes()


def test_residual_kernel_matches_taped_residual_block():
    block = ResidualBlock(8, rng=stream("test.nn.functional.res"))
    x = _x(4, 3, 8)
    taped = ref.residual(Tensor(x), block).data
    mask = (_RNG.random((4, 3)) < 0.6).astype(np.float32)
    rows = F.PackedRows(mask)
    for scratch in (ScratchArena(), F.TapeScratch()):
        fused = F.residual_relu_linear(scratch, "res", rows.gather(scratch, "x", x),
                                       block.fc.weight.data, block.fc.bias.data, rows)
        assert np.array_equal(fused, _kept(taped, rows))


@pytest.mark.parametrize("length", [1, 2, 7, 25])
def test_softmax_kernel_matches_taped_softmax(length):
    x = _x(3, 2, 4, length)
    xt = Tensor(x, requires_grad=True)
    taped = ref.softmax(xt, axis=-1)
    g = _x(3, 2, 4, length)
    taped.backward(g)
    fused = F.softmax_(x.copy(), ScratchArena(), "sm")
    assert np.array_equal(fused, taped.data)
    scratch, e = F.TapeScratch(), x.copy()
    probs = F.softmax_(e, scratch, "sm")
    assert np.array_equal(probs, taped.data)
    z = scratch["sm.stat"].reshape(probs.shape[:-1] + (1,))
    assert F.softmax_backward(g, e, z).tobytes() == xt.grad.tobytes()


@pytest.mark.parametrize("length", list(range(1, 12)) + [25, 54])
def test_pairwise_rowmax_matches_amax(length):
    """The block-halving max must agree with np.amax for every length
    (max is order-independent — any combination tree, same bits)."""
    arena = ScratchArena()
    v = _x(16, length)
    out = np.empty((16, 1), dtype=np.float32)
    F._pairwise_rowmax(v, arena, "m", out)
    assert np.array_equal(out, np.amax(v, axis=1, keepdims=True))


def _projections(att):
    return [(p.weight.data, p.bias.data)
            for p in (att.q_proj, att.k_proj, att.v_proj, att.out_proj)]


def test_attention_kernel_matches_taped_attention():
    for length in (1, 2, 6):
        _check_attention_kernel(length)


def _check_attention_kernel(length):
    """On every row it computes, the packed kernel equals ``x`` plus the
    dense layer over the whole ``L x L`` block; skipped rows are never
    computed."""
    att = MultiHeadSelfAttention(16, 4, rng=stream("test.nn.functional.mha"))
    x = _x(5, length, 16)
    mask = (_RNG.random((5, length)) < 0.6).astype(np.float32)
    mask[0] = 1.0  # at least 2 kept rows, so the chunk is packed
    mask[1] = 0.0  # a sample with no kept row
    mask[-1, -1] = 1.0
    rows = F.PackedRows(mask)
    kept = np.flatnonzero(mask.reshape(-1))
    assert np.array_equal(rows.index, kept)
    xt = Tensor(x)
    taped = (xt + ref.attention(att, xt, mask)).data
    for scratch in (ScratchArena(), F.TapeScratch()):
        packed = rows.gather(scratch, "x", x)
        distinct = F.DistinctRows(scratch, packed, x.shape[0] * length)
        qkv = [F.linear(scratch, f"mha.{part}_proj", distinct.values, w, b, rows=distinct)
               for part, (w, b) in zip("qkv", _projections(att))]
        fused = F.attention(scratch, "mha", packed, qkv, distinct.inverse, _projections(att)[3],
                            att.n_heads, rows, mask_bias=F.additive_mask_bias(mask))
        assert fused.shape == rows.lead + (16,)
        assert np.array_equal(fused.reshape(-1, 16), _kept(taped, rows))


def test_attention_kernel_rejects_bad_heads():
    rows = F.PackedRows(np.ones((1, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        F.attention(ScratchArena(), "bad", _x(2, 6), [_x(3, 6)] * 3, np.arange(2),
                    (_x(6, 6), _x(6)), n_heads=4, rows=rows,
                    mask_bias=F.additive_mask_bias(rows.mask))


def test_masked_sum_pool_matches_taped_pool():
    for length in (1, 5):
        x = _x(4, length, 8)
        mask = (_RNG.random((4, length)) < 0.6).astype(np.float32)
        mask[0] = np.float32(0.5)  # mask values scale their rows
        mask[1] = 0.0              # no kept row: pools to zeros
        xt = Tensor(x, requires_grad=True)
        taped = ref.pool(xt, mask)
        g = _x(4, 8)
        taped.backward(g)
        rows = F.PackedRows(mask)
        for scratch in (ScratchArena(), F.TapeScratch()):
            fused = F.masked_sum_pool(scratch, "pool", rows.gather(scratch, "x", x), rows)
            assert np.array_equal(fused, taped.data)
            assert not fused[1].any()
        dx = F.masked_sum_pool_backward(g, rows)
        assert dx.shape == rows.lead + (8,)
        assert dx.tobytes() == _kept(xt.grad, rows).tobytes()


def test_packed_rows_row_rules():
    arena = ScratchArena()
    # Rule 1: fewer than 2 kept rows -> the chunk keeps every row.
    one = np.zeros((3, 4), dtype=np.float32)
    one[1, 2] = 1.0
    rows = F.PackedRows(one)
    assert np.array_equal(rows.index, np.arange(12))
    assert rows.bounds == [0, 4, 8, 12] and rows.lead == (12,)
    assert rows.blocks == (3, 4)
    assert np.array_equal(rows.weight, one.reshape(-1))
    # Rule 2: at L == 1 each packed row keeps its own 1-row GEMM shape.
    rows = F.PackedRows(np.array([[1.0], [0.0], [1.0]], np.float32))
    assert rows.lead == rows.blocks == (2, 1) and rows.bounds == [0, 1, 1, 2]
    # Packed scratch is sized by the capacity, whatever the kept count;
    # the taped path pads the kept rows to whole L-row blocks.
    prefix = (np.arange(4)[None, :] < np.array([[4], [2], [0]])).astype(np.float32)
    rows = F.PackedRows(prefix)
    assert rows.bounds == [0, 4, 6, 6] and rows.blocks == (2, 4)
    buf = rows.take(arena, "buf", 5)
    assert buf.shape == (6, 5) and buf.base.size == 12 * 5


def test_distinct_rows_are_byte_distinct():
    """Rows are one distinct row only when their bytes are equal: a row
    one ulp away, or equal but for the sign of a zero, is a row of its
    own.  ``values`` holds the distinct rows, then a zero spare row."""
    a = _x(5)
    a[1] = 0.0
    ulp, signed = a.copy(), a.copy()
    ulp[0] = np.nextafter(a[0], np.float32(np.inf))
    signed[1] = -0.0
    b = _x(5)
    x = np.stack([a, b, a, ulp, signed, b, a])
    for lead in ((7,), (7, 1)):
        distinct = F.DistinctRows(ScratchArena(), x.reshape(lead + (5,)), 8)
        assert distinct.count == 4 and distinct.lead == (5,) + lead[1:]
        values = distinct.values.reshape(-1, 5)
        assert values[distinct.inverse].tobytes() == x.tobytes()
        assert not values[-1].any()
        assert len(set(distinct.inverse[[0, 2, 6]])) == 1
        assert len(set(distinct.inverse[[0, 1, 3, 4]])) == 4


def test_distinct_rows_keep_the_hash_ordered_table():
    """Any row may stand for its group, but the table is the one a stable
    ``np.unique`` over the hashes gives: the same bytes in hash order, and
    the same inverse."""
    rng = stream("test.nn.functional.distinct.order")
    for n_rows, n_distinct in ((0, 1), (1, 1), (9, 3), (500, 40), (3000, 2)):
        pool = rng.integers(0, 2**32, size=(n_distinct, 6), dtype=np.uint32)
        words = pool[rng.integers(0, n_distinct, size=n_rows)]
        first, inverse = F._distinct(words)
        hashes = words @ F._row_hash(6)
        _, want_first, want_inverse = np.unique(hashes, return_index=True,
                                                return_inverse=True)
        assert words[first].tobytes() == words[want_first].tobytes()
        assert np.array_equal(inverse, want_inverse.reshape(-1))
        assert words[first[inverse]].tobytes() == words.tobytes()


def test_distinct_rows_survive_hash_collisions(monkeypatch):
    """Rows are grouped by a 64-bit hash and the grouping is checked
    against the bytes: with every hash equal, the rows are sorted
    instead, and the result is the same partition."""
    x = np.repeat(_x(6, 4), [3, 1, 2, 1, 4, 1], axis=0)
    expected = F.DistinctRows(ScratchArena(), x, 12)
    monkeypatch.setattr(F, "_row_hash", lambda width: np.zeros(width, dtype=np.uint64))
    collided = F.DistinctRows(ScratchArena(), x, 12)
    assert collided.count == expected.count == 6
    assert collided.values.reshape(-1, 4)[collided.inverse].tobytes() == x.tobytes()


@pytest.mark.parametrize("length", [1, 4])
def test_linear_over_distinct_rows_matches_the_packed_rows(length):
    """The linear kernel over a table of distinct rows gives each packed
    row the bytes of the packed rows' own GEMM, also with one distinct
    row: the spare row keeps that GEMM at 2 rows, where a 1-row gemv
    rounds differently (at 4 -> 8 on random rows, for most rows)."""
    rng = stream(f"test.nn.functional.distinct.{length}")
    weight = rng.standard_normal((4, 8)).astype(np.float32)
    bias = rng.standard_normal(8).astype(np.float32)
    rows = F.PackedRows(np.ones((6, length), dtype=np.float32))
    for pool in (1, 2, 6):
        x = rng.standard_normal((pool, 4)).astype(np.float32)[rng.integers(0, pool, (6, length))]
        arena = ScratchArena()
        packed = rows.gather(arena, "x", x)
        distinct = F.DistinctRows(arena, packed, rows.n * length)
        table = F.linear(arena, "table", distinct.values, weight, bias, rows=distinct)
        want = F.linear(arena, "want", packed, weight, bias, rows=rows)
        got = table.reshape(-1, 8)[distinct.inverse]
        assert got.tobytes() == want.reshape(-1, 8).tobytes(), pool


def test_packed_rows_span_and_key_width():
    """The attention block's span and key width, and the packed rows'
    places in the trimmed query and key layouts."""
    mask = np.zeros((3, 25), dtype=np.float32)
    mask[0, :4] = mask[1, [0, 2, 10]] = mask[2, :2] = 1.0
    rows = F.PackedRows(mask)
    assert (rows.span, rows.key_width) == (11, 16)
    sample, position = np.divmod(rows.index, 25)
    assert np.array_equal(rows.query_index, sample * 11 + position)
    assert np.array_equal(rows.key_index, sample * 16 + position)
    # Row rule 1 keeps every row, so nothing is trimmed; nor is a
    # sequence of TRIM_BELOW_LENGTH positions or more.
    one = np.zeros((3, 25), dtype=np.float32)
    one[1, 2] = 1.0
    assert (F.PackedRows(one).span, F.PackedRows(one).key_width) == (25, 25)
    long = np.zeros((2, F.TRIM_BELOW_LENGTH), dtype=np.float32)
    long[:, :3] = 1.0
    rows = F.PackedRows(long)
    assert rows.span == rows.key_width == F.TRIM_BELOW_LENGTH
    assert np.array_equal(rows.query_index, rows.index)


def test_key_width_keeps_the_last_axis_sum_bits():
    """For every L <= 40 and span <= L, the float32 last-axis sum of a
    row whose columns past the span are zero has the same bytes at the
    chosen key width as at L — the reduction the softmax (and its
    backward) runs over the trimmed block.  A numpy that changes its
    reduction order fails here rather than as a digest drift."""
    rng = stream("test.nn.functional.width")
    for length in range(1, 41):
        for span in range(1, length + 1):
            mask = (np.arange(length) < np.array([[span], [1]])).astype(np.float32)
            width = F.PackedRows(mask).key_width
            assert span <= width <= length
            full = np.zeros((256, length), dtype=np.float32)
            full[:, :span] = rng.random((256, span), dtype=np.float32)
            full[:, :span] *= np.float32(10.0) ** rng.integers(-4, 5, (256, span))
            trimmed = np.ascontiguousarray(full[:, :width])
            assert (np.sum(trimmed, axis=-1, keepdims=True).tobytes()
                    == np.sum(full, axis=-1, keepdims=True).tobytes()), (length, span, width)


# -- warm kernels allocate nothing -------------------------------------


def test_warm_kernel_sequence_is_all_hits():
    arena = ScratchArena()
    layer = Linear(6, 6, rng=stream("test.nn.functional.warm"))
    x = _x(4, 6)
    for _ in range(2):  # first pass populates, second must hit
        F.linear(arena, "warm", x, layer.weight.data, layer.bias.data)
    arena.reset_counters()
    F.linear(arena, "warm", x, layer.weight.data, layer.bias.data)
    assert arena.misses == 0 and arena.hits == 1


# -- property: linear kernel == reference across geometries -----------------


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 6),
    length=st.integers(1, 5),
    d_in=st.integers(1, 9),
    d_out=st.integers(1, 9),
    relu=st.booleans(),
)
def test_linear_bit_identity_property(n, length, d_in, d_out, relu):
    rng = stream(f"test.nn.functional.prop.{d_in}.{d_out}")
    layer = Linear(d_in, d_out, rng=rng)
    x = rng.standard_normal((n, length, d_in)).astype(np.float32)
    taped = ref.linear(Tensor(x), layer, relu=relu)
    fused = F.linear(ScratchArena(), "p", x, layer.weight.data,
                     layer.bias.data, relu=relu)
    assert np.array_equal(fused, taped.data)
