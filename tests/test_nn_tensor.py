"""Autograd core: op semantics, broadcasting, and gradient checks.

Finite-difference checks (the ``gradcheck`` marker, also run by ``make
gradcheck``) pin every differentiable op against central differences;
the unmarked tests pin forward semantics, dtype discipline, and the
tape's structural behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nn_reference import softmax

from repro.core.tlp_model import TLPModel, TLPModelConfig
from repro.nn import (
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    ResidualBlock,
    Tensor,
    as_tensor,
    assert_gradients_match,
    lambda_rank_loss,
)
from repro.nn import functional as F
from repro.nn.functional import PackedRows
from repro.nn.layers import masked_sum_pool
from repro.nn.tensor import _sigmoid, _unbroadcast
from repro.utils.rng import stream

_RNG = stream("test.nn.tensor")


def _t(shape, scale=1.0, offset=0.0):
    """A requires-grad tensor of smooth, kink-free values."""
    data = (_RNG.standard_normal(shape) * scale + offset).astype(np.float32)
    return Tensor(data, requires_grad=True)


# -- forward semantics -------------------------------------------------


def test_tensor_is_float32_everywhere():
    t = Tensor(np.arange(6).reshape(2, 3))
    assert t.data.dtype == np.float32
    out = (t * 2.5 + 1.0).exp().sum()
    assert out.data.dtype == np.float32
    out.backward()
    assert t.grad is None  # requires_grad defaults to False
    # 0-d operands: ops on them return numpy scalars, and on numpy 1.x a
    # Python-float factor (softplus, pow) promotes them to float64; the
    # gradient must still land as a float32 ndarray.
    for op in (Tensor.softplus, Tensor.relu, Tensor.__neg__, lambda v: v ** 3.0):
        x = Tensor(np.float32(0.5), requires_grad=True)
        op(x).backward()
        assert type(x.grad) is np.ndarray
        assert x.grad.dtype == np.float32 and x.grad.shape == ()


def test_item_extracts_any_single_element_shape():
    # regression: item() on a [1, 1] tensor used to fail — it must
    # accept every single-element shape, like ndarray.item().
    assert Tensor([[3.0]]).item() == 3.0
    assert Tensor(3.0).item() == 3.0
    assert Tensor([3.0]).item() == 3.0
    assert isinstance(Tensor([[3.0]]).item(), float)
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0]).item()


def test_backward_accumulates_and_zero_on_detached():
    x = _t((3,))
    y = x * np.float32(2.0) + x * np.float32(3.0)
    y.sum().backward()
    assert np.allclose(x.grad, 5.0)


def test_backward_requires_scalar():
    x = _t((2, 2))
    with pytest.raises(ValueError):
        (x * x).backward()


def test_as_tensor_passthrough_and_wrap():
    t = _t((2,))
    assert as_tensor(t) is t
    w = as_tensor([1.0, 2.0])
    assert isinstance(w, Tensor) and not w.requires_grad


def test_matmul_requires_2d():
    with pytest.raises(ValueError):
        _t((3,)) @ _t((3,))


def test_softmax_rows_sum_to_one_and_handle_large_logits():
    x = Tensor(np.array([[1e4, 0.0, -1e4], [3.0, 2.0, 1.0]], dtype=np.float32))
    p = softmax(x, axis=-1)
    assert np.allclose(p.data.sum(axis=-1), 1.0)
    assert np.isfinite(p.data).all()
    assert p.data[0, 0] == pytest.approx(1.0)


def test_sigmoid_is_overflow_free():
    """The logistic behind softplus's gradient, at large |x|."""
    x = np.array([-100.0, 0.0, 100.0], dtype=np.float32)
    with np.errstate(over="raise"):
        s = _sigmoid(x)
        t = Tensor(x, requires_grad=True)
        t.softplus().sum().backward()
    assert s.dtype == np.float32 and np.isfinite(s).all()
    assert s[0] == pytest.approx(0.0) and s[2] == pytest.approx(1.0)
    assert t.grad.tobytes() == s.tobytes()


def test_grad_tape_not_built_without_requires_grad():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = a @ b + a
    assert not out.requires_grad and out._parents == ()


# -- gradient checks ---------------------------------------------------


@pytest.mark.gradcheck
@pytest.mark.parametrize(
    "name, fn",
    [
        ("add_broadcast", lambda a, b: (a + b.reshape(1, 3)).sum()),
        ("sub", lambda a, b: (a - b.reshape(1, 3)).mean()),
        ("mul_broadcast", lambda a, b: (a * b.reshape(1, 3)).sum()),
        ("div", lambda a, b: (a / (b.reshape(1, 3) + np.float32(4.0))).sum()),
        ("pow", lambda a, b: ((a * a + np.float32(1.0)) ** 1.5).sum() + b.sum()),
        ("neg_rsub", lambda a, b: (np.float32(1.0) - (-a)).sum() + b.sum()),
    ],
)
def test_gradcheck_arithmetic(name, fn):
    a, b = _t((2, 3)), _t((3,))
    assert_gradients_match(lambda: fn(a, b), [a, b])


@pytest.mark.gradcheck
def test_gradcheck_matmul_batched():
    a, b = _t((2, 3, 4), scale=0.5), _t((4, 5), scale=0.5)
    assert_gradients_match(lambda: ((a @ b) ** 2).mean(), [a, b])


@pytest.mark.gradcheck
@pytest.mark.parametrize(
    "name, fn",
    [
        ("sum_axis", lambda x: (x.sum(axis=0) ** 2).sum()),
        ("mean_keepdims", lambda x: ((x - x.mean(axis=1, keepdims=True)) ** 2).sum()),
        ("reshape", lambda x: (x.reshape(6) * np.float32(2.0)).sum()),
        ("transpose", lambda x: (x.transpose((1, 0)) @ x).sum()),
        ("getitem", lambda x: (x[np.array([1, 0, 1])] ** 2).sum()),
    ],
)
def test_gradcheck_shape_ops(name, fn):
    x = _t((2, 3))
    assert_gradients_match(lambda: fn(x), [x])


@pytest.mark.gradcheck
@pytest.mark.parametrize(
    "name, fn, offset",
    [
        ("exp", lambda x: x.exp().sum(), 0.0),
        # relu gradcheck needs inputs away from the kink at 0.
        ("relu", lambda x: (x.relu() * np.float32(2.0)).sum(), 3.0),
        ("softplus", lambda x: x.softplus().sum(), 0.0),
    ],
)
def test_gradcheck_elementwise(name, fn, offset):
    x = _t((3, 2), scale=0.8, offset=offset)
    assert_gradients_match(lambda: fn(x), [x])


@pytest.mark.gradcheck
def test_gradcheck_softmax():
    x = _t((2, 4), scale=0.7)
    assert_gradients_match(lambda: (softmax(x, axis=-1) ** 2).sum(), [x])


# The packed rows of two masks: L = 4 with sample 1 empty and one row at
# weight 0.5 (5 kept rows in two zero-padded 4-row blocks), and L = 1
# (every packed row its own 1-row block).
_ROWS = {
    "L4": PackedRows(np.array([[1, 1, 0, 1], [0, 0, 0, 0], [1, 0.5, 0, 0]],
                              dtype=np.float32)),
    "L1": PackedRows(np.array([[1], [0], [1], [1]], dtype=np.float32)),
}


def _off_kink(linear: Linear) -> Linear:
    """Small weights and a positive bias hold every ReLU preactivation
    away from its kink under the finite-difference perturbations."""
    linear.weight.data *= np.float32(0.3)
    linear.bias.data += np.float32(2.0)
    return linear


def _packed_layer(kind: str, rows: PackedRows):
    """``(width, parameters, forward)`` of one layer over packed rows."""
    rng = stream(f"test.nn.tensor.packed.{kind}")
    if kind in ("linear", "linear_relu"):
        lin = Linear(5, 3, rng=rng)
        relu = kind == "linear_relu"
        if relu:
            _off_kink(lin)
        return 5, lin.parameters(), lambda x: lin(x, rows, relu=relu)
    if kind == "layer_norm":
        ln = LayerNorm(6)
        ln.gamma.data = rng.standard_normal(6).astype(np.float32)
        ln.beta.data = rng.standard_normal(6).astype(np.float32)
        return 6, ln.parameters(), lambda x: ln(x, rows).softplus()
    if kind == "attention":
        att = MultiHeadSelfAttention(4, 2, rng=rng)
        return 4, att.parameters(), lambda x: att(x, rows)
    if kind == "residual":
        block = ResidualBlock(4, rng=rng)
        _off_kink(block.fc)
        return 4, block.parameters(), lambda x: block(x, rows)
    return 5, [], lambda x: masked_sum_pool(x, rows)


@pytest.mark.gradcheck
@pytest.mark.parametrize("rows", sorted(_ROWS))
@pytest.mark.parametrize("kind", ["linear", "linear_relu", "layer_norm", "attention",
                                  "residual", "pool"])
def test_gradcheck_layer_over_packed_rows(kind, rows):
    """Each layer's hand-written backward over packed rows, input and
    parameters, at L >= 2 with an empty sample and at L == 1."""
    packed = _ROWS[rows]
    width, params, forward = _packed_layer(kind, packed)
    x = _t(packed.lead + (width,), scale=0.5)
    assert_gradients_match(lambda: (forward(x) ** 2).sum(), [x, *params])


@pytest.mark.gradcheck
def test_gradcheck_weight_grad_over_packed_rows():
    """Per-sample weight GEMMs over the packed rows, samples added in
    order and the empty one skipped; only kept rows reach the loss, as
    in the model's pool."""
    rows = _ROWS["L4"]
    lin = Linear(5, 3, bias=False, rng=stream("test.nn.tensor.packed.weight"))
    x = _t(rows.lead + (5,), scale=0.5)
    assert_gradients_match(lambda: (masked_sum_pool(lin(x, rows), rows) ** 2).sum(),
                           [x, lin.weight])


# -- backward contract -------------------------------------------------
#
# The backward pass skips gradients nobody reads, adopts freshly
# allocated gradient arrays, accumulates the linear kernel's weight
# gradients per sample, and flushes subnormals out of the attention
# products -- and none of that may move a bit of what the dense
# formulas compute.

_TINY = np.finfo(np.float32).tiny


def _bits(a: np.ndarray) -> np.ndarray:
    """The raw float32 bit patterns: equality that tells -0.0 from 0.0."""
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def _subnormal(a: np.ndarray) -> np.ndarray:
    return (a != 0) & (np.abs(a) < _TINY)


def _flushed(a: np.ndarray) -> np.ndarray:
    """Plain-numpy reference flush: subnormals to zero of the same sign."""
    return np.where(_subnormal(a), a * np.float32(0.0), a)


def _batched_linear_grads(n, length, k, e, seed):
    """Input and weight gradients of ``[N, L, K] @ [K, E]`` from the
    linear kernel's backward over every row kept (a sample per ``L``
    rows), then the same two from the dense formulas."""
    rng = stream(f"test.nn.tensor.batched.{n}.{length}.{k}.{e}.{seed}")
    x = rng.standard_normal((n, length, k)).astype(np.float32)
    w = rng.standard_normal((k, e)).astype(np.float32)
    g = rng.standard_normal((n, length, e)).astype(np.float32)
    x[rng.random(x.shape) < 0.2] = 0.0  # ReLU-like zeros
    rows = PackedRows(np.ones((n, length), dtype=np.float32))
    gx, gw, _ = F.linear_backward(g.reshape(rows.lead + (e,)), x.reshape(rows.lead + (k,)),
                                  w, rows)
    ref_x = g @ w.swapaxes(-1, -2)
    ref_w = _unbroadcast(x.swapaxes(-1, -2) @ g, w.shape)
    return gx.reshape(ref_x.shape), gw, ref_x, ref_w


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    length=st.integers(1, 6),
    k=st.integers(1, 9),
    e=st.integers(1, 9),
    seed=st.integers(0, 3),
)
def test_batched_matmul_grads_match_old_formulas_bitwise(n, length, k, e, seed):
    gx, gw, ref_x, ref_w = _batched_linear_grads(n, length, k, e, seed)
    assert gx.shape == ref_x.shape and gw.shape == ref_w.shape
    assert gx.dtype == gw.dtype == np.float32
    assert np.array_equal(_bits(gx), _bits(ref_x))
    assert np.array_equal(_bits(gw), _bits(ref_w))


@pytest.mark.parametrize("n, length, k, e", [
    (64, 25, 22, 128), (64, 25, 128, 256), (64, 25, 256, 256),  # perfbench model
    (64, 25, 24, 48), (64, 25, 48, 48),  # smoke-train model
    (1, 25, 256, 256), (64, 1, 256, 256), (64, 25, 1, 256), (64, 25, 256, 1),
])
def test_batched_matmul_grads_match_old_formulas_at_model_shapes(n, length, k, e):
    gx, gw, ref_x, ref_w = _batched_linear_grads(n, length, k, e, 0)
    assert np.array_equal(_bits(gx), _bits(ref_x))
    assert np.array_equal(_bits(gw), _bits(ref_w))


@pytest.mark.parametrize("name, fn", [
    ("add", lambda x, c: x + c), ("radd", lambda x, c: c + x),
    ("sub", lambda x, c: x - c), ("rsub", lambda x, c: c - x),
    ("mul", lambda x, c: x * c), ("rmul", lambda x, c: c * x),
    ("div", lambda x, c: x / c),
    ("rdiv", lambda x, c: c / (x * x + np.float32(1.0))),
    ("matmul", lambda x, c: x @ c), ("rmatmul", lambda x, c: c @ x),
])
def test_constant_operands_get_no_grad(name, fn):
    x = _t((3, 3))
    const = Tensor(np.abs(_RNG.standard_normal((3, 3))).astype(np.float32) + 1.0)
    fn(x, const).sum().backward()
    assert const.grad is None
    assert x.grad is not None and x.grad.shape == (3, 3)


def test_model_inputs_get_no_grad():
    """The feature block and every parameter-free operand of the Fig. 7
    forward (mask bias, pooling mask, loss constants) stay grad-free."""
    model = TLPModel(TLPModelConfig(emb=6, hidden=8, n_heads=2, n_res_blocks=1,
                                    stream_name="test.nn.tensor.model"))
    x = Tensor(_RNG.standard_normal((5, 4, 6)).astype(np.float32))
    mask = np.array([[1, 1, 1, 0]] * 5, dtype=np.float32)
    labels = np.linspace(0.2, 1.0, 5, dtype=np.float32)
    lambda_rank_loss(model(x, mask), labels).backward()
    assert x.grad is None
    assert all(p.grad is not None for p in model.parameters())


def _tape(root: Tensor) -> list[Tensor]:
    seen: dict[int, Tensor] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


@pytest.mark.parametrize("name, build", [
    ("a_plus_a", lambda a, b: a + a),
    ("x_plus_y", lambda a, b: a + b),
    ("reshape_transpose_chain",
     lambda a, b: a.reshape(3, 2).transpose((1, 0)).reshape(6).reshape(2, 3) + b),
    ("transpose_both", lambda a, b: a.transpose((1, 0)) + b.transpose((1, 0))),
    ("sum_broadcast", lambda a, b: a.sum(axis=0, keepdims=True) + b),
    ("gather_of_transpose",
     lambda a, b: a.transpose((1, 0))[np.array([2, 0, 1])] * b.transpose((1, 0))),
])
def test_no_two_grads_share_memory(name, build):
    a, b = _t((2, 3)), _t((2, 3))
    out = build(a, b)
    out.backward(np.ones_like(out.data))
    grads = [t.grad for t in _tape(out) if t.grad is not None]
    assert len(grads) >= 2
    # Every gradient has the C layout a copy gives, whatever its
    # tensor's layout: matmul bits depend on operand layout.
    assert all(g.flags.c_contiguous for g in grads)
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)
    # Mutating one gradient in place leaves every other one alone.
    before = [g.copy() for g in grads]
    grads[0] += np.float32(100.0)
    for g, old in zip(grads[1:], before[1:]):
        assert np.array_equal(g, old)


def _softmax_backward_reference(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The tape's softmax backward in plain numpy, same float32 op order,
    without any flush."""
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    z = e.sum(axis=-1, keepdims=True)
    ge = g / z
    ge += (-g * e / (z * z)).sum(axis=-1, keepdims=True)
    return ge * e


def _saturated_logits(shape: tuple[int, ...], rng) -> np.ndarray:
    """Rows spread over ~0..-120, so exp underflows through the subnormal
    range (-87.3..-103.3) into exact zeros."""
    base = np.linspace(0.0, -120.0, shape[-1], dtype=np.float32)
    return base + rng.standard_normal(shape).astype(np.float32)


def test_softmax_backward_flushes_subnormals():
    rng = stream("test.nn.tensor.saturated.softmax")
    x = Tensor(_saturated_logits((4, 3, 40), rng), requires_grad=True)
    g = rng.standard_normal(x.shape).astype(np.float32)
    softmax(x, axis=-1).backward(g)
    ref = _softmax_backward_reference(x.data, g)
    assert _subnormal(ref).any()  # the case is not vacuous
    assert not _subnormal(x.grad).any()
    assert np.array_equal(_bits(x.grad), _bits(_flushed(ref)))
    # The attention kernel's softmax backward: the same bits.
    e, scratch = x.data.copy(), F.TapeScratch()
    F.softmax_(e, scratch, "sm")
    kernel = F.softmax_backward(g, e, scratch["sm.stat"].reshape(e.shape[:-1] + (1,)))
    assert np.array_equal(_bits(kernel), _bits(x.grad))


def test_score_matmul_backward_flushes_subnormals():
    """``softmax(q @ kᵀ)`` on saturated scores: neither the softmax nor
    the score matmul hands a subnormal to the projections upstream.
    With ``k = 0.1 I`` the scores are the saturated logits and ``dq`` is
    a tenth of the score gradient, whose ~1e-38 entries it pushes into
    the subnormal range."""
    rng = stream("test.nn.tensor.saturated.scores")
    length = 40
    shape = (3, 2, length, length)
    q = Tensor(_saturated_logits(shape, rng) * np.float32(10.0), requires_grad=True)
    k = Tensor(np.broadcast_to(np.eye(length, dtype=np.float32) * np.float32(0.1), shape),
               requires_grad=True)
    scores = q @ k.transpose((0, 1, 3, 2))
    g = rng.standard_normal(scores.shape).astype(np.float32)
    softmax(scores, axis=-1).backward(g)

    gs_ref = _softmax_backward_reference(scores.data, g)
    assert _subnormal(gs_ref).any()
    assert np.array_equal(_bits(scores.grad), _bits(_flushed(gs_ref)))
    gs = _flushed(gs_ref)
    dq_ref = gs @ k.data
    dk_ref = (q.data.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
    assert _subnormal(dq_ref).any()
    for grad, ref in ((q.grad, dq_ref), (k.grad, dk_ref)):
        assert not _subnormal(grad).any()
        assert np.array_equal(_bits(grad), _bits(_flushed(ref)))


def test_attention_backward_flushes_where_the_op_chain_does(monkeypatch):
    """On saturated scores the attention layer's backward gives the
    op-level chain's bits, flushing at its five points: the softmax's
    exp and both operand gradients of ``q @ kᵀ`` and ``attn @ v``."""
    import nn_reference as ref

    rng = stream("test.nn.tensor.saturated.attention")
    att = MultiHeadSelfAttention(8, 2, rng=rng)
    att.q_proj.weight.data *= np.float32(40.0)  # score rows spread past exp's range
    n, length = 3, 25
    x = rng.standard_normal((n, length, 8)).astype(np.float32)
    g = rng.standard_normal((n, length, 8)).astype(np.float32)
    mask = np.ones((n, length), dtype=np.float32)
    rows = PackedRows(mask)

    xr = Tensor(x, requires_grad=True)
    (xr + ref.attention(att, xr, mask)).backward(g)
    expected = [xr.grad] + [p.grad.copy() for p in att.parameters()]

    calls = []
    flush = F._flush_subnormals
    monkeypatch.setattr(F, "_flush_subnormals", lambda a: calls.append(1) or flush(a))
    att.zero_grad()
    xt = Tensor(x.reshape(rows.lead + (8,)), requires_grad=True)
    att(xt, rows).backward(g.reshape(rows.lead + (8,)))
    assert len(calls) == 5
    got = [xt.grad] + [p.grad for p in att.parameters()]
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()
