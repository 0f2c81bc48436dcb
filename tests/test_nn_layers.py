"""Layers + module registry: semantics, reproducibility, gradchecks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Dropout,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    ResidualBlock,
    Tensor,
    assert_gradients_match,
)
from repro.utils.rng import stream

_RNG = stream("test.nn.layers")


def _x(shape, scale=1.0):
    return Tensor((_RNG.standard_normal(shape) * scale).astype(np.float32), requires_grad=True)


# -- module registry ---------------------------------------------------


class _Stack(Module):
    """A module holding a list of modules: the tree walks' test case."""

    def __init__(self, *modules: Module):
        self.steps = list(modules)


def test_named_parameters_walks_nested_modules_and_lists():
    model = _Stack(Linear(4, 8, rng=stream("t.l1")), Dropout(0.5, rng=stream("t.l1d")),
                   ResidualBlock(8, rng=stream("t.l2")))
    names = dict(model.named_parameters())
    assert set(names) == {
        "steps.0.weight", "steps.0.bias", "steps.2.fc.weight", "steps.2.fc.bias",
    }
    assert model.num_parameters() == 4 * 8 + 8 + 8 * 8 + 8


def test_state_dict_round_trip_and_shape_validation():
    src = Linear(3, 5, rng=stream("t.sd.a"))
    dst = Linear(3, 5, rng=stream("t.sd.b"))
    assert not np.array_equal(src.weight.data, dst.weight.data)
    dst.load_state_dict(src.state_dict())
    assert np.array_equal(src.weight.data, dst.weight.data)
    with pytest.raises(ValueError):
        Linear(3, 4).load_state_dict(src.state_dict())


def test_train_eval_toggles_recursively():
    model = _Stack(Dropout(0.5, rng=stream("t.te")), ResidualBlock(4))
    model.eval()
    assert all(not m.training for m in model.modules())
    model.train()
    assert all(m.training for m in model.modules())


def test_zero_grad_clears_all_parameters():
    lin = Linear(2, 2, rng=stream("t.zg"))
    (lin(_x((3, 2))) ** 2).sum().backward()
    assert lin.weight.grad is not None
    lin.zero_grad()
    assert lin.weight.grad is None and lin.bias.grad is None


def test_same_rng_stream_gives_bit_identical_weights():
    a = Linear(6, 6, rng=stream("t.repro.lin"))
    b = Linear(6, 6, rng=stream("t.repro.lin"))
    assert np.array_equal(a.weight.data, b.weight.data)


# -- layer semantics ---------------------------------------------------


def test_linear_broadcasts_over_leading_axes():
    lin = Linear(4, 2, rng=stream("t.lin3d"))
    out = lin(_x((5, 7, 4)))
    assert out.shape == (5, 7, 2)
    raw = _RNG.standard_normal((3, 4)).astype(np.float32)
    flat = lin(Tensor(raw))
    assert np.allclose(flat.data, raw @ lin.weight.data + lin.bias.data, atol=1e-6)


def test_linear_without_bias_has_no_bias_parameter():
    lin = Linear(3, 3, bias=False, rng=stream("t.nobias"))
    assert lin.bias is None and len(list(lin.parameters())) == 1


def test_layernorm_normalizes_last_axis():
    ln = LayerNorm(16)
    out = ln(_x((4, 16), scale=5.0))
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
    assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


def test_dropout_eval_is_identity_and_train_rescales():
    x = Tensor(np.ones((64, 64), dtype=np.float32))
    drop = Dropout(0.5, rng=stream("t.drop"))
    drop.eval()
    assert np.array_equal(drop(x).data, x.data)
    drop.train()
    out = drop(x).data
    kept = out != 0.0
    assert 0.3 < kept.mean() < 0.7  # ~half survive
    assert np.allclose(out[kept], 2.0)  # inverted scaling
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_residual_block_preserves_shape_and_identity_path():
    block = ResidualBlock(8, rng=stream("t.res"))
    x = _x((3, 8))
    out = block(x)
    assert out.shape == x.shape
    # the skip connection passes gradients even where relu is dead
    out.sum().backward()
    assert np.abs(x.grad).min() > 0.0


# -- gradchecks --------------------------------------------------------


@pytest.mark.gradcheck
def test_gradcheck_linear():
    lin = Linear(4, 3, rng=stream("t.gc.lin"))
    x = _x((5, 4))
    assert_gradients_match(lambda: (lin(x) ** 2).mean(), [x, lin.weight, lin.bias])


@pytest.mark.gradcheck
def test_gradcheck_layernorm():
    ln = LayerNorm(6)
    x = _x((4, 6), scale=2.0)
    assert_gradients_match(lambda: ln(x).softplus().sum(), [x, ln.gamma, ln.beta])


@pytest.mark.gradcheck
def test_gradcheck_residual_block():
    # offset the preactivation away from relu kinks for clean differences
    block = ResidualBlock(4, rng=stream("t.gc.res"))
    block.fc.bias.data += np.float32(3.0)
    x = _x((3, 4), scale=0.3)
    assert_gradients_match(lambda: (block(x) ** 2).mean(), [x] + list(block.parameters()))


@pytest.mark.gradcheck
def test_gradcheck_dropout_fixed_mask():
    # freeze one realized mask and check gradients through the scaling
    drop = Dropout(0.5, rng=stream("t.gc.drop"))
    x = _x((4, 4))
    mask = (stream("t.gc.drop.mask").random((4, 4)) >= 0.5).astype(np.float32)
    assert_gradients_match(lambda: (x * (mask / np.float32(0.5))).sum(), [x])
    assert drop.p == 0.5
