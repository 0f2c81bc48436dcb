"""The layer kit the Fig. 7 model is assembled from.

Linear, LayerNorm, Dropout, ReLU, and the dimension-preserving residual
block.  Every layer that owns weights accepts an ``rng`` generator (from
a named ``repro.utils.rng`` stream); models thread one generator through
all submodules so construction order fully determines the weights.

``Linear``, ``ResidualBlock`` and ``Dropout`` also run over packed rows:
given a :class:`~repro.nn.functional.PackedRows`, their input is the
``[ceil(R / L), L, width]`` blocks of the ``R`` kept rows (what
``TLPModel.pool_features`` computes).  The forward GEMM is the same
batched call over blocks instead of samples; ``Linear``'s weight
gradient runs one GEMM per sample over that sample's kept rows, and
``Dropout`` draws its keep-mask at the dense shape, so the generator and
the kept rows' factors are those of the dense input.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.functional import PackedRows
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, gather_rows
from repro.utils.rng import stream


def _default_rng(tag: str) -> np.random.Generator:
    return stream(f"nn.init.{tag}")


class Linear(Module):
    """``y = x @ W + b`` over the last axis (batched inputs broadcast)."""

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

    def forward(self, x: Tensor, rows: PackedRows | None = None) -> Tensor:
        """``rows`` marks ``x`` as packed ``[B, L, in]`` blocks
        (:class:`~repro.nn.functional.PackedRows`): the weight gradient
        then runs one GEMM per sample over that sample's rows."""
        out = x.matmul(self.weight, None if rows is None else rows.bounds)
        if self.bias is not None:
            out = out + self.bias
        return out


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LayerNorm(Module):
    """Normalize the last axis to zero mean / unit variance, then affine."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.dim = dim
        self.eps = float(eps)
        self.gamma = Parameter(init.ones((dim,)))
        self.beta = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * (var + self.eps) ** -0.5
        return normed * self.gamma + self.beta


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
            keep = gather_rows(Tensor(keep), rows.index, rows.blocks).data
        return x * (keep / np.float32(1.0 - self.p))


class ResidualBlock(Module):
    """``x + ReLU(Linear(x))`` — the Fig. 7 dimension-preserving unit."""

    def __init__(self, dim: int, rng: np.random.Generator | None = None):
        if rng is None:
            rng = _default_rng(f"residual.{dim}")
        self.fc = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor, rows: PackedRows | None = None) -> Tensor:
        return x + self.fc(x, rows).relu()


__all__ = ["Dropout", "LayerNorm", "Linear", "ReLU", "ResidualBlock"]
