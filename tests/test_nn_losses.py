"""MSE + lambda-rank: ranking semantics and gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Tensor,
    assert_gradients_match,
    lambda_rank_loss,
    lambda_rank_loss_grouped,
    mse_loss,
)
from repro.utils.rng import stream

_RNG = stream("test.nn.losses")


def _pred(values):
    return Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)


def test_mse_matches_numpy():
    p = _pred([1.0, 2.0, 3.0])
    t = np.array([1.5, 2.0, 1.0], dtype=np.float32)
    assert float(mse_loss(p, t).data) == pytest.approx(float(((p.data - t) ** 2).mean()))


def test_lambda_rank_rewards_correct_order():
    """Scoring in label order must cost less than scoring in reverse."""
    y = np.array([1.0, 0.8, 0.5, 0.2, 0.05], dtype=np.float32)
    good = lambda_rank_loss(_pred([5.0, 4.0, 3.0, 2.0, 1.0]), y)
    bad = lambda_rank_loss(_pred([1.0, 2.0, 3.0, 4.0, 5.0]), y)
    assert 0.0 < float(good.data) < float(bad.data)


def test_lambda_rank_degenerate_groups_are_zero_with_grad_path():
    for pred, y in [
        (_pred([1.0]), np.array([0.5], dtype=np.float32)),  # one candidate
        (_pred([1.0, 2.0]), np.array([0.7, 0.7], dtype=np.float32)),  # tied labels
        (_pred([1.0, 2.0]), np.zeros(2, dtype=np.float32)),  # maxDCG == 0
    ]:
        loss = lambda_rank_loss(pred, y)
        assert float(loss.data) == 0.0
        loss.backward()
        assert pred.grad is not None and np.allclose(pred.grad, 0.0)


def test_lambda_rank_shape_mismatch_raises():
    with pytest.raises(ValueError):
        lambda_rank_loss(_pred([1.0, 2.0]), np.zeros(3, dtype=np.float32))


def test_gradient_pushes_scores_toward_label_order():
    """One ascent step on -loss must raise the better item's score."""
    pred = _pred([0.0, 0.0, 0.0])
    y = np.array([1.0, 0.5, 0.1], dtype=np.float32)
    lambda_rank_loss(pred, y).backward()
    # descending gradient: best-labelled item gets the most negative grad
    assert pred.grad[0] < pred.grad[1] < pred.grad[2]


@pytest.mark.gradcheck
def test_gradcheck_mse():
    p = _pred(_RNG.standard_normal(8).astype(np.float32))
    t = _RNG.standard_normal(8).astype(np.float32)
    assert_gradients_match(lambda: mse_loss(p, t), [p])


@pytest.mark.gradcheck
def test_gradcheck_lambda_rank():
    # well-separated scores so the eps-perturbation cannot flip the
    # predicted order (the sort permutation is a constant of the tape)
    p = _pred([2.0, 1.0, -0.5, 0.3, -1.4])
    y = np.array([0.9, 0.2, 0.6, 1.0, 0.1], dtype=np.float32)
    assert_gradients_match(lambda: lambda_rank_loss(p, y), [p], eps=5e-3)


# -- grouped-batch conditions (what the trainer's packed batches hit) -----


def test_grouped_loss_matches_mean_of_per_group_losses():
    y = np.array([0.9, 0.2, 0.6, 1.0, 0.3, 0.8], dtype=np.float32)
    g = np.array([3, 3, 3, 7, 7, 7])
    scores = [2.0, -1.0, 0.5, 1.5, -0.3, 0.9]
    grouped = lambda_rank_loss_grouped(_pred(scores), y, g)
    a = lambda_rank_loss(_pred(scores[:3]), y[:3])
    b = lambda_rank_loss(_pred(scores[3:]), y[3:])
    expected = (float(a.data) + float(b.data)) / 2.0
    assert float(grouped.data) == pytest.approx(expected, rel=1e-6)


def test_grouped_loss_all_tied_predictions_still_learn():
    """All-equal scores (a freshly initialized model) must produce a
    finite positive loss and a gradient that separates the labels."""
    pred = _pred([0.0, 0.0, 0.0, 0.0])
    y = np.array([1.0, 0.4, 0.9, 0.2], dtype=np.float32)
    loss = lambda_rank_loss_grouped(pred, y, np.zeros(4, dtype=np.int64))
    assert np.isfinite(float(loss.data)) and float(loss.data) > 0.0
    loss.backward()
    assert pred.grad[0] < pred.grad[1]  # best label pushed up hardest


def test_grouped_loss_singleton_group_dilutes_nothing():
    """A size-1 group inside a batch contributes zero loss and does not
    change the divisor — the batch loss equals the other group's loss."""
    y = np.array([0.5, 0.9, 0.2, 0.7], dtype=np.float32)
    g = np.array([1, 2, 2, 2])
    scores = [3.0, 1.0, -0.5, 0.4]
    grouped = lambda_rank_loss_grouped(_pred(scores), y, g)
    alone = lambda_rank_loss(_pred(scores[1:]), y[1:])
    assert float(grouped.data) == pytest.approx(float(alone.data), rel=1e-6)
    # Gradient still flows to every row that has pairs; singleton gets 0.
    p = _pred(scores)
    lambda_rank_loss_grouped(p, y, g).backward()
    assert p.grad[0] == 0.0
    assert np.any(p.grad[1:] != 0.0)


def test_grouped_loss_all_degenerate_batch_is_zero_with_grad_path():
    pred = _pred([1.0, 2.0, 3.0])
    y = np.array([0.5, 0.7, 0.7], dtype=np.float32)  # singleton + tied pair
    loss = lambda_rank_loss_grouped(pred, y, np.array([0, 1, 1]))
    assert float(loss.data) == 0.0
    loss.backward()
    assert pred.grad is not None and np.allclose(pred.grad, 0.0)


def test_grouped_loss_rejects_non_contiguous_groups():
    pred = _pred([1.0, 2.0, 3.0, 4.0])
    y = np.array([0.9, 0.1, 0.8, 0.2], dtype=np.float32)
    with pytest.raises(ValueError, match="contiguous"):
        lambda_rank_loss_grouped(pred, y, np.array([5, 6, 5, 6]))


def test_grouped_loss_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape"):
        lambda_rank_loss_grouped(
            _pred([1.0, 2.0]), np.zeros(2, dtype=np.float32), np.zeros(3)
        )


@pytest.mark.gradcheck
def test_gradcheck_lambda_rank_sigma_not_one():
    """sigma scales inside softplus — an error there (e.g. applying it
    outside) survives sigma == 1 gradchecks; pin sigma = 2.5."""
    p = _pred([2.0, 1.0, -0.5, 0.3, -1.4])
    y = np.array([0.9, 0.2, 0.6, 1.0, 0.1], dtype=np.float32)
    assert_gradients_match(lambda: lambda_rank_loss(p, y, sigma=2.5), [p], eps=5e-3)


@pytest.mark.gradcheck
def test_gradcheck_lambda_rank_grouped():
    p = _pred([2.0, 1.0, -0.5, 0.3, -1.4, 1.8, -2.0])
    y = np.array([0.9, 0.2, 0.6, 1.0, 0.1, 0.7, 0.4], dtype=np.float32)
    g = np.array([0, 0, 0, 1, 1, 1, 2])  # two real groups + a singleton
    assert_gradients_match(
        lambda: lambda_rank_loss_grouped(p, y, g, sigma=1.5), [p], eps=5e-3
    )
