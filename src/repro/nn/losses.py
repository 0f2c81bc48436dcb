"""MSE and lambda-rank losses over ``min_latency / latency`` labels.

The paper's Table 3 compares both: plain MSE regression on the relative
-performance label, and the ranking loss TLP ships with — a LambdaLoss
style pairwise objective where each pair's RankNet cost is weighted by
the NDCG swap delta implied by the current predicted order.  Within one
task only the *order* of candidates matters (the tuner takes a top-k),
which is exactly what the rank loss optimizes.

The lambda weights and the sort permutation are functions of the labels
and of the predicted order, not of the scores' values, so they enter the
tape as constants (the standard LambdaRank treatment); gradients flow
through the score differences only.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.tensor import Tensor, as_tensor

_LN2 = math.log(2.0)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    diff = pred - np.asarray(target, dtype=np.float32)
    return (diff * diff).mean()


def lambda_rank_loss(pred: Tensor, labels: np.ndarray, sigma: float = 1.0) -> Tensor:
    """LambdaRank over one group of candidates.

    ``pred`` are the model scores ``[B]``; ``labels`` the relative
    -performance targets ``min_latency / latency`` in ``(0, 1]``.  The
    loss is ``sum_{label_i > label_j} w_ij * log2(1 + exp(-sigma (s_i -
    s_j)))`` with the LambdaLoss NDCG weights ``w_ij = |2^y_i - 2^y_j| *
    |1/D(r_i) - 1/D(r_j)| / maxDCG`` (ranks ``r`` from the predicted
    order), normalized by the number of contributing pairs.
    """
    pred = as_tensor(pred)
    y = np.asarray(labels, dtype=np.float32).reshape(-1)
    if pred.data.shape != y.shape:
        raise ValueError(f"pred shape {pred.data.shape} != labels shape {y.shape}")
    n = y.shape[0]
    if n < 2:
        return (pred * np.float32(0.0)).sum()

    # Constant scaffolding: predicted-descending permutation, NDCG gains
    # and rank discounts.  np.argsort is stable, so ties break by index
    # and the permutation is deterministic.
    order = np.argsort(-pred.data, kind="stable")
    y_sorted = y[order]
    gains = np.exp2(y_sorted) - 1.0
    discounts = 1.0 / np.log2(np.arange(n, dtype=np.float32) + 2.0)
    ideal_gains = np.sort(np.exp2(y) - 1.0)[::-1]
    max_dcg = float((ideal_gains * discounts).sum())
    if max_dcg <= 0.0:
        return (pred * np.float32(0.0)).sum()
    weights = (
        np.abs(gains[:, None] - gains[None, :])
        * np.abs(discounts[:, None] - discounts[None, :])
        / np.float32(max_dcg)
    )
    pair_mask = (y_sorted[:, None] - y_sorted[None, :]) > 0.0
    coeff = (weights * pair_mask).astype(np.float32)
    n_pairs = int(pair_mask.sum())
    if n_pairs == 0:
        return (pred * np.float32(0.0)).sum()

    s = pred[order]
    s_diffs = s.reshape(n, 1) - s.reshape(1, n)
    # log2(1 + exp(-sigma x)) == softplus(-sigma x) / ln 2.
    pair_costs = (s_diffs * np.float32(-sigma)).softplus() * coeff
    return pair_costs.sum() * np.float32(1.0 / (_LN2 * n_pairs))


def lambda_rank_loss_grouped(
    pred: Tensor,
    labels: np.ndarray,
    groups: np.ndarray,
    sigma: float = 1.0,
) -> Tensor:
    """LambdaRank over a batch of *contiguous* candidate groups.

    ``groups`` assigns each row of ``pred`` to a (task, platform) group;
    rows of one group must be contiguous (the layout
    ``GroupedBatchLoader`` emits).  Each group contributes its own
    per-pair-normalized :func:`lambda_rank_loss`; the batch loss is the
    mean over groups that actually produced pairs, so a stray singleton
    or an all-tied group dilutes nothing.  Slicing ``pred`` per segment
    is differentiable, so gradients flow back exactly as if each group
    had been its own batch.
    """
    pred = as_tensor(pred)
    gids = np.asarray(groups).reshape(-1)
    y = np.asarray(labels, dtype=np.float32).reshape(-1)
    if pred.data.shape != y.shape or gids.shape != y.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.data.shape}, labels {y.shape}, "
            f"groups {gids.shape}"
        )
    if gids.shape[0] == 0:
        return (pred * np.float32(0.0)).sum()
    # Boundaries of the contiguous runs; a group id reappearing later in
    # the batch would start a new run and silently weaken the ranking
    # signal, so reject non-contiguous layouts loudly.
    starts = np.flatnonzero(np.diff(gids) != 0) + 1
    bounds = np.concatenate(([0], starts, [gids.shape[0]]))
    run_ids = gids[bounds[:-1]]
    if np.unique(run_ids).shape[0] != run_ids.shape[0]:
        raise ValueError("groups must be contiguous within the batch")

    total: Tensor | None = None
    contributing = 0
    for start, stop in zip(bounds[:-1], bounds[1:]):
        seg_y = y[start:stop]
        if stop - start < 2 or np.all(seg_y == seg_y[0]):
            continue
        seg_loss = lambda_rank_loss(pred[int(start):int(stop)], seg_y, sigma)
        total = seg_loss if total is None else total + seg_loss
        contributing += 1
    if total is None:
        return (pred * np.float32(0.0)).sum()
    return total * np.float32(1.0 / contributing)


__all__ = [
    "lambda_rank_loss",
    "lambda_rank_loss_grouped",
    "mse_loss",
]
