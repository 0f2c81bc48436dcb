"""repro.nn — from-scratch numpy autograd + NN substrate.

Reverse-mode autodiff over float32 ndarrays (:mod:`repro.nn.tensor`),
a parameter/module registry, the layers the TLP cost model needs
(Linear, LayerNorm, Dropout, residual blocks, multi-head
self-attention), MSE + lambda-rank losses, Adam with a cosine schedule,
and seeded batch loaders over extractor output.  Every differentiable piece is pinned by
finite-difference gradient checks (``make gradcheck``).
"""

from repro.nn import functional
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.data import ArraySource, BatchLoader, GroupedBatchLoader, RecordSource
from repro.nn.functional import MaskBiasCache, ScratchArena
from repro.nn.gradcheck import assert_gradients_match, max_relative_error, numerical_gradient
from repro.nn.layers import Dropout, LayerNorm, Linear, ResidualBlock
from repro.nn.losses import lambda_rank_loss, lambda_rank_loss_grouped, mse_loss
from repro.nn.module import CheckpointError, Module, Parameter
from repro.nn.optim import Adam, CosineLR, Optimizer
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "Adam",
    "ArraySource",
    "BatchLoader",
    "CheckpointError",
    "CosineLR",
    "Dropout",
    "GroupedBatchLoader",
    "LayerNorm",
    "Linear",
    "MaskBiasCache",
    "Module",
    "MultiHeadSelfAttention",
    "Optimizer",
    "Parameter",
    "RecordSource",
    "ResidualBlock",
    "ScratchArena",
    "Tensor",
    "as_tensor",
    "assert_gradients_match",
    "functional",
    "is_grad_enabled",
    "lambda_rank_loss",
    "lambda_rank_loss_grouped",
    "max_relative_error",
    "mse_loss",
    "no_grad",
    "numerical_gradient",
]
