"""The fused inference kernels (repro.nn.functional).

Two contracts:

1. Bit-identity — every fused kernel reproduces its taped layer's
   float32 output exactly, bit for bit (the serving path must rank
   candidates identically to the training-time forward).
2. Allocation discipline — the :class:`ScratchArena` pools buffers by
   (name, shape), so a warm call sequence allocates nothing, and the
   hit/miss counters prove it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import MaskBiasCache, ScratchArena
from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import LayerNorm, Linear, ResidualBlock
from repro.nn.tensor import Tensor, softmax
from repro.utils.rng import stream

_RNG = stream("test.nn.functional")


def _x(*shape):
    return _RNG.standard_normal(shape).astype(np.float32)


# -- ScratchArena ------------------------------------------------------


def test_arena_pools_by_name_and_shape():
    arena = ScratchArena()
    a = arena.take("a", (4, 3))
    assert arena.misses == 1 and arena.hits == 0
    assert arena.take("a", (4, 3)) is a  # same key -> pooled buffer
    assert arena.hits == 1
    b = arena.take("b", (4, 3))  # same shape, different site -> no alias
    assert b is not a
    c = arena.take("a", (2, 3))  # same site, different shape -> new buffer
    assert c is not a
    assert arena.misses == 3
    assert arena.n_buffers == 3
    assert arena.nbytes == (12 + 12 + 6) * 4


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


# -- kernel bit-identity against the taped layers ----------------------


def test_linear_kernel_matches_taped_linear():
    arena = ScratchArena()
    layer = Linear(6, 10, rng=stream("test.nn.functional.linear"))
    x = _x(4, 5, 6)
    taped = layer(Tensor(x)).data
    fused = F.linear(arena, "lin", x, layer.weight.data, layer.bias.data)
    assert np.array_equal(fused, taped)
    taped_relu = layer(Tensor(x)).relu().data
    fused_relu = F.linear(arena, "lin", x, layer.weight.data, layer.bias.data,
                          relu=True)
    assert np.array_equal(fused_relu, taped_relu)


def test_layer_norm_kernel_matches_taped_layer_norm():
    arena = ScratchArena()
    layer = LayerNorm(12)
    layer.gamma.data = _x(12)
    layer.beta.data = _x(12)
    x = _x(3, 5, 12)
    taped = layer(Tensor(x)).data
    fused = F.layer_norm(arena, "ln", x.copy(), layer.gamma.data,
                         layer.beta.data, layer.eps)
    assert np.array_equal(fused, taped)


def test_residual_kernel_matches_taped_residual_block():
    arena = ScratchArena()
    block = ResidualBlock(8, rng=stream("test.nn.functional.res"))
    x = _x(4, 3, 8)
    taped = block(Tensor(x)).data
    fused = F.residual_relu_linear(arena, "res", x, block.fc.weight.data,
                                   block.fc.bias.data)
    assert np.array_equal(fused, taped)


@pytest.mark.parametrize("length", [1, 2, 7, 25])
def test_softmax_kernel_matches_taped_softmax(length):
    arena = ScratchArena()
    x = _x(3, 2, 4, length)
    taped = softmax(Tensor(x), axis=-1).data
    fused = F.softmax_(x.copy(), arena, "sm")
    assert np.array_equal(fused, taped)


@pytest.mark.parametrize("length", list(range(1, 12)) + [25, 54])
def test_pairwise_rowmax_matches_amax(length):
    """The block-halving max must agree with np.amax for every length
    (max is order-independent — any combination tree, same bits)."""
    arena = ScratchArena()
    v = _x(16, length)
    out = np.empty((16, 1), dtype=np.float32)
    F._pairwise_rowmax(v, arena, "m", out)
    assert np.array_equal(out, np.amax(v, axis=1, keepdims=True))


def test_attention_kernel_matches_taped_attention():
    arena = ScratchArena()
    att = MultiHeadSelfAttention(16, 4, rng=stream("test.nn.functional.mha"))
    x = _x(3, 6, 16)
    mask = (_RNG.random((3, 6)) < 0.7).astype(np.float32)
    taped = att(Tensor(x), mask).data

    dim = att.dim
    qkv_w = np.empty((dim, 3 * dim), dtype=np.float32)
    qkv_b = np.empty(3 * dim, dtype=np.float32)
    for i, proj in enumerate((att.q_proj, att.k_proj, att.v_proj)):
        qkv_w[:, i * dim:(i + 1) * dim] = proj.weight.data
        qkv_b[i * dim:(i + 1) * dim] = proj.bias.data
    bias = F.additive_mask_bias(mask)
    fused = F.attention(arena, "mha", x, qkv_w, qkv_b,
                        att.out_proj.weight.data, att.out_proj.bias.data,
                        att.n_heads, mask_bias=bias)
    assert np.array_equal(fused, taped)


def test_attention_kernel_rejects_bad_heads():
    with pytest.raises(ValueError):
        F.attention(ScratchArena(), "bad", _x(1, 2, 6), _x(6, 18), _x(18),
                    _x(6, 6), _x(6), n_heads=4)


def test_masked_sum_pool_matches_taped_pool():
    arena = ScratchArena()
    x = _x(4, 5, 8)
    mask = (_RNG.random((4, 5)) < 0.6).astype(np.float32)
    t = Tensor(x)
    taped = (t * mask.reshape(4, 5, 1)).sum(axis=1).data
    fused = F.masked_sum_pool(arena, "pool", x.copy(), mask)
    assert np.array_equal(fused, taped)


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


# -- property: fused linear == taped across geometries -----------------


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
    taped = layer(Tensor(x))
    if relu:
        taped = taped.relu()
    fused = F.linear(ScratchArena(), "p", x, layer.weight.data,
                     layer.bias.data, relu=relu)
    assert np.array_equal(fused, taped.data)
