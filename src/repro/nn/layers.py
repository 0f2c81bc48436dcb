"""The layer kit the Fig. 7 model is assembled from.

Linear, LayerNorm, Dropout, the dimension-preserving residual block and
the masked sequence-sum pool.  Every layer that owns weights accepts an
``rng`` generator (from a named ``repro.utils.rng`` stream); models
thread one generator through all submodules so construction order fully
determines the weights.

One forward per layer: ``Linear`` (with or without its ReLU),
``LayerNorm``, ``ResidualBlock`` and :func:`masked_sum_pool` run their
packed kernel of :mod:`repro.nn.functional` in training and in
``TLPModel.predict`` alike, and with grad enabled record one tape node
with the kernel's hand-written backward.  Given
:class:`~repro.nn.functional.PackedRows`, input and output are the
packed kept rows; without (the score head) every row is computed.
``arena`` is ``predict``'s scratch and ``name`` its call-site key.
``Dropout`` draws its keep-mask at the dense shape, so the generator
and the kept rows' factors are those of the dense input.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.functional import PackedRows, ScratchArena
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, track_layer
from repro.utils.rng import stream


def _default_rng(tag: str) -> np.random.Generator:
    return stream(f"nn.init.{tag}")


def scratch_for(arena: ScratchArena | None) -> F.Scratch:
    """``predict``'s arena, or a fresh :class:`~repro.nn.functional.TapeScratch`."""
    return F.TapeScratch() if arena is None else arena


class Linear(Module):
    """``y = x @ W + b`` over the last axis, ReLU'd if asked."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        if rng is None:
            rng = _default_rng(f"linear.{in_features}x{out_features}")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor, rows: PackedRows | None = None, relu: bool = False,
                arena: ScratchArena | None = None, name: str = "linear") -> Tensor:
        bias = None if self.bias is None else self.bias.data
        out = F.linear(scratch_for(arena), name, x.data, self.weight.data, bias,
                       relu=relu, rows=rows)
        return self.track(x, out, rows, relu)

    def track(self, x: Tensor, out: np.ndarray, rows: PackedRows | None = None,
              relu: bool = False) -> Tensor:
        """The layer's tape node: ``out`` is its forward of ``x``'s rows,
        which ``TLPModel`` computes once per distinct row and gathers."""
        weight, bias = self.weight, self.bias

        def grads(g: np.ndarray):
            return F.linear_backward(g, x.data, weight.data, rows,
                                     out if relu else None, x.requires_grad)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return track_layer(out, parents, grads)


class LayerNorm(Module):
    """Normalize the last axis to zero mean / unit variance, then affine."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.dim = dim
        self.eps = float(eps)
        self.gamma = Parameter(init.ones((dim,)))
        self.beta = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor, rows: PackedRows | None = None,
                arena: ScratchArena | None = None, name: str = "norm") -> Tensor:
        scratch = scratch_for(arena)
        out = F.layer_norm(scratch, name, x.data, self.gamma.data, self.beta.data,
                           self.eps, rows)
        return track_layer(out, (x, self.gamma, self.beta), lambda g: F.layer_norm_backward(
            g, scratch, name, self.gamma.data, x.requires_grad))


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    Masks come from the layer's own generator, so a training run is
    reproducible given the stream name and the order of forward calls.
    """

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability {p} outside [0, 1)")
        self.p = float(p)
        self._rng = rng if rng is not None else _default_rng(f"dropout.{p}")

    def forward(self, x: Tensor, rows: PackedRows | None = None) -> Tensor:
        """Over packed ``rows`` the keep-mask is still drawn at the dense
        ``[n, L, width]`` shape, then its kept rows are gathered: the
        generator advances as for the dense input, and every kept row
        gets the factors it would get there."""
        if not self.training or self.p == 0.0:
            return x
        shape = x.shape if rows is None else (rows.n, rows.length, x.shape[-1])
        keep = (self._rng.random(shape) >= self.p).astype(np.float32)
        if rows is not None:
            keep = keep.reshape(-1, shape[-1])[rows.index].reshape(x.shape)
        return x * (keep / np.float32(1.0 - self.p))


class ResidualBlock(Module):
    """``x + ReLU(Linear(x))`` — the Fig. 7 dimension-preserving unit."""

    def __init__(self, dim: int, rng: np.random.Generator | None = None):
        if rng is None:
            rng = _default_rng(f"residual.{dim}")
        self.fc = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor, rows: PackedRows | None = None,
                arena: ScratchArena | None = None, name: str = "res") -> Tensor:
        scratch = scratch_for(arena)
        weight, bias = self.fc.weight, self.fc.bias
        out = F.residual_relu_linear(scratch, name, x.data, weight.data, bias.data, rows)
        return track_layer(out, (x, weight, bias), lambda g: F.residual_relu_linear_backward(
            g, scratch, name, x.data, weight.data, rows, x.requires_grad))


def masked_sum_pool(x: Tensor, rows: PackedRows, arena: ScratchArena | None = None,
                    name: str = "pool") -> Tensor:
    """Packed rows -> ``[n, D]`` sequence sums, each kept row times its
    mask value (:func:`repro.nn.functional.masked_sum_pool`)."""
    out = F.masked_sum_pool(scratch_for(arena), name, x.data, rows)
    return track_layer(out, (x,), lambda g: (F.masked_sum_pool_backward(g, rows),))


__all__ = ["Dropout", "LayerNorm", "Linear", "ResidualBlock", "masked_sum_pool"]
