"""Optimizers + LR schedules: convergence and state semantics."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.nn import SGD, Adam, CosineLR, Parameter, StepLR
from repro.nn.tensor import Tensor
from repro.utils.rng import stream


def _quadratic(p: Parameter, target: np.ndarray) -> Tensor:
    diff = p - target
    return (diff * diff).sum()


def _fit(opt_factory, steps=200):
    target = np.array([1.0, -2.0, 0.5], dtype=np.float32)
    p = Parameter(np.zeros(3, dtype=np.float32))
    opt = opt_factory([p])
    for _ in range(steps):
        opt.zero_grad()
        _quadratic(p, target).backward()
        opt.step()
    return p, target


def test_sgd_converges_on_quadratic():
    p, target = _fit(lambda ps: SGD(ps, lr=0.1))
    assert np.allclose(p.data, target, atol=1e-4)


def test_sgd_momentum_converges():
    p, target = _fit(lambda ps: SGD(ps, lr=0.05, momentum=0.9))
    assert np.allclose(p.data, target, atol=1e-3)


def test_adam_converges_on_quadratic():
    p, target = _fit(lambda ps: Adam(ps, lr=0.1))
    assert np.allclose(p.data, target, atol=1e-3)


def test_adam_first_step_size_is_lr():
    """With bias correction, step 1 moves by ~lr in the gradient direction."""
    p = Parameter(np.zeros(1, dtype=np.float32))
    opt = Adam([p], lr=0.01)
    p.grad = np.array([7.0], dtype=np.float32)
    opt.step()
    assert p.data[0] == pytest.approx(-0.01, rel=1e-3)


def test_adam_weight_decay_is_decoupled():
    """Decay scales with lr * wd and applies even with zero gradient signal."""
    p = Parameter(np.full(2, 10.0, dtype=np.float32))
    opt = Adam([p], lr=0.1, weight_decay=0.5)
    p.grad = np.zeros(2, dtype=np.float32)
    opt.step()
    assert np.allclose(p.data, 10.0 * (1.0 - 0.1 * 0.5))
    with pytest.raises(ValueError):
        Adam([p], lr=-1.0)


def _adam_expression_form(params, grads, steps, lr, betas, eps, wd):
    """Adam written as array expressions, the form ``Adam.step`` runs
    in place: the oracle for its bits."""
    b1, b2 = betas
    data = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        scale = np.float32(lr * math.sqrt(1.0 - b2**t) / (1.0 - b1**t))
        for d, mi, vi, g in zip(data, m, v, grads[t - 1]):
            mi *= np.float32(b1)
            mi += np.float32(1.0 - b1) * g
            vi *= np.float32(b2)
            vi += np.float32(1.0 - b2) * (g * g)
            if wd:
                d -= np.float32(lr * wd) * d
            d -= scale * mi / (np.sqrt(vi) + np.float32(eps))
    return data


@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_adam_in_place_step_matches_the_expression_form(wd):
    rng = stream(f"test.nn.optim.adam_bits.{wd}")
    shapes = [(6, 5), (5,), (3, 7), (1,)]
    start = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    grads = [[rng.standard_normal(s).astype(np.float32) for s in shapes]
             for _ in range(5)]
    params = [Parameter(a.copy()) for a in start]
    opt = Adam(params, lr=0.01, betas=(0.9, 0.999), eps=1e-8, weight_decay=wd)
    for step_grads in grads:
        for p, g in zip(params, step_grads):
            p.grad = g
        opt.step()
    expected = _adam_expression_form(start, grads, 5, 0.01, (0.9, 0.999), 1e-8, wd)
    for p, e in zip(params, expected):
        assert np.array_equal(p.data, e)


def test_adam_step_allocates_no_parameter_sized_temporaries():
    params = [Parameter(np.ones((64, 64), dtype=np.float32)),
              Parameter(np.ones(64, dtype=np.float32))]
    opt = Adam(params, lr=0.01, weight_decay=0.01)
    for p in params:
        p.grad = np.full(p.data.shape, 0.5, dtype=np.float32)
    opt.step()
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params[0].data.nbytes // 4, peak


def test_skipped_grad_leaves_parameter_untouched():
    p = Parameter(np.ones(2, dtype=np.float32))
    opt = SGD([p], lr=0.5)
    opt.step()  # p.grad is None
    assert np.array_equal(p.data, np.ones(2, dtype=np.float32))


def test_optimizer_rejects_empty_params():
    with pytest.raises(ValueError):
        SGD([], lr=0.1)


def test_step_lr_decays_by_gamma():
    p = Parameter(np.ones(1, dtype=np.float32))
    opt = SGD([p], lr=1.0)
    sched = StepLR(opt, step_size=2, gamma=0.1)
    lrs = [sched.step() for _ in range(4)]
    assert lrs == pytest.approx([1.0, 0.1, 0.1, 0.01])


def test_cosine_lr_reaches_min_lr():
    p = Parameter(np.ones(1, dtype=np.float32))
    opt = SGD([p], lr=1.0)
    sched = CosineLR(opt, total_epochs=4, min_lr=0.1)
    lrs = [sched.step() for _ in range(5)]
    assert lrs[0] < 1.0
    assert lrs[3] == pytest.approx(0.1)
    assert lrs[4] == pytest.approx(0.1)  # clamps past the horizon
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))


def test_cosine_lr_default_min_lr_keeps_final_epoch_stepping():
    """Regression: the old min_lr=0.0 default drove lr to exactly 0.0 on
    the final epoch, turning every last-epoch step into a silent no-op
    (and violating the optimizer's own lr > 0 contract)."""
    p = Parameter(np.ones(1, dtype=np.float32))
    opt = SGD([p], lr=1.0)
    sched = CosineLR(opt, total_epochs=3)
    for _ in range(3):
        sched.step()
    assert opt.lr == pytest.approx(0.01)  # 1% of base, not 0.0
    p.grad = np.ones(1, dtype=np.float32)
    before = p.data.copy()
    opt.step()
    assert not np.array_equal(p.data, before)  # final epoch still learns


def test_cosine_lr_rejects_nonpositive_or_oversized_min_lr():
    p = Parameter(np.ones(1, dtype=np.float32))
    opt = SGD([p], lr=0.5)
    with pytest.raises(ValueError, match="min_lr"):
        CosineLR(opt, total_epochs=4, min_lr=0.0)
    with pytest.raises(ValueError, match="min_lr"):
        CosineLR(opt, total_epochs=4, min_lr=-0.1)
    with pytest.raises(ValueError, match="min_lr"):
        CosineLR(opt, total_epochs=4, min_lr=0.6)  # > base_lr


def test_lr_invariant_enforced_on_assignment():
    """The lr > 0 contract holds everywhere, not just at construction —
    a schedule assigning a bad lr fails loudly instead of no-opping."""
    p = Parameter(np.ones(1, dtype=np.float32))
    opt = SGD([p], lr=0.1)
    with pytest.raises(ValueError, match="non-positive"):
        opt.lr = 0.0
    with pytest.raises(ValueError, match="non-positive"):
        SGD([p], lr=0.0)
    opt.lr = 0.2  # positive assignment still fine
    assert opt.lr == pytest.approx(0.2)


def test_step_lr_rejects_nonpositive_gamma():
    p = Parameter(np.ones(1, dtype=np.float32))
    opt = SGD([p], lr=0.1)
    with pytest.raises(ValueError, match="gamma"):
        StepLR(opt, step_size=2, gamma=0.0)


def test_all_optimizer_state_is_float32():
    p = Parameter(np.ones((3, 3), dtype=np.float32))
    opt = Adam([p], lr=0.01)
    p.grad = np.ones((3, 3), dtype=np.float32)
    opt.step()
    assert p.data.dtype == np.float32
    assert opt._m[0].dtype == np.float32 and opt._v[0].dtype == np.float32


def test_cosine_lr_stays_clamped_far_past_horizon():
    """Regression: unclamped, the raw cosine comes back *up* past
    ``total_epochs`` — training 3x longer than scheduled would silently
    raise the lr to the base value again.  It must sit exactly at
    ``min_lr`` for every post-horizon epoch."""
    p = Parameter(np.ones(1, dtype=np.float32))
    opt = SGD([p], lr=1.0)
    sched = CosineLR(opt, total_epochs=4, min_lr=0.05)
    lrs = [sched.step() for _ in range(12)]  # 3x the horizon
    assert all(lr == pytest.approx(0.05) for lr in lrs[3:])
    assert sched.epoch == 4  # the counter clamps too


def _train_steps(p, opt, grads):
    for g in grads:
        opt.zero_grad()
        p.grad = g.copy()
        opt.step()


@pytest.mark.parametrize("factory", [
    lambda ps: SGD(ps, lr=0.05, momentum=0.9),
    lambda ps: Adam(ps, lr=0.01, weight_decay=0.1),
])
def test_optimizer_state_roundtrip_resume_is_bit_identical(factory):
    """Resume from state_dict == never stopping, bit for bit.

    The optim.py docstring has always claimed model + optimizer state is
    fully capturable; before state_dict/load_state_dict existed, resuming
    silently reset SGD velocity and Adam moments/step count."""
    rng = stream("test.nn.optim.resume")
    grads = [rng.standard_normal(4).astype(np.float32) for _ in range(8)]

    p_full = Parameter(np.ones(4, dtype=np.float32))
    opt_full = factory([p_full])
    _train_steps(p_full, opt_full, grads)

    p_a = Parameter(np.ones(4, dtype=np.float32))
    opt_a = factory([p_a])
    _train_steps(p_a, opt_a, grads[:3])
    snapshot = opt_a.state_dict()
    weights = p_a.data.copy()

    # Fresh parameter + optimizer, as a new process would build them.
    p_b = Parameter(weights)
    opt_b = factory([p_b])
    opt_b.load_state_dict(snapshot)
    _train_steps(p_b, opt_b, grads[3:])
    assert np.array_equal(p_b.data, p_full.data)


def test_optimizer_state_dict_is_a_snapshot_not_a_view():
    p = Parameter(np.ones(2, dtype=np.float32))
    opt = SGD([p], lr=0.1, momentum=0.9)
    p.grad = np.ones(2, dtype=np.float32)
    opt.step()
    snap = opt.state_dict()
    before = snap["velocity.0"].copy()
    p.grad = np.full(2, 5.0, dtype=np.float32)
    opt.step()
    assert np.array_equal(snap["velocity.0"], before)  # later steps don't leak in


def test_optimizer_state_npz_roundtrip(tmp_path):
    """One np.savez holds optimizer state alongside Module.save weights."""
    p = Parameter(np.ones(3, dtype=np.float32))
    opt = Adam([p], lr=0.02)
    p.grad = np.arange(3, dtype=np.float32)
    opt.step()
    path = tmp_path / "optim.npz"
    np.savez(path, **opt.state_dict())
    with np.load(path) as z:
        restored = {k: z[k] for k in z.files}
    p2 = Parameter(np.ones(3, dtype=np.float32))
    opt2 = Adam([p2], lr=0.5)
    opt2.load_state_dict(restored)
    assert opt2.lr == pytest.approx(0.02)
    assert opt2._step_count == 1
    assert np.array_equal(opt2._m[0], opt._m[0])
    assert np.array_equal(opt2._v[0], opt._v[0])


def test_optimizer_load_state_dict_validates_keys_and_shapes():
    p = Parameter(np.ones(3, dtype=np.float32))
    opt = SGD([p], lr=0.1, momentum=0.9)
    state = opt.state_dict()
    with pytest.raises(KeyError, match="missing"):
        opt.load_state_dict({"lr": state["lr"]})
    bad = dict(state)
    bad["velocity.0"] = np.zeros(7, dtype=np.float32)
    with pytest.raises(ValueError, match="shape"):
        opt.load_state_dict(bad)
    # Adam state into SGD: wrong key set, must fail loudly.
    adam = Adam([Parameter(np.ones(3, dtype=np.float32))], lr=0.1)
    with pytest.raises(KeyError):
        opt.load_state_dict(adam.state_dict())


def test_scheduler_state_roundtrip():
    p = Parameter(np.ones(1, dtype=np.float32))
    opt = SGD([p], lr=1.0)
    sched = CosineLR(opt, total_epochs=6, min_lr=0.1)
    for _ in range(3):
        sched.step()
    snap = sched.state_dict()

    opt2 = SGD([Parameter(np.ones(1, dtype=np.float32))], lr=1.0)
    sched2 = CosineLR(opt2, total_epochs=6, min_lr=0.1)
    sched2.load_state_dict(snap)
    assert sched2.epoch == 3
    assert sched2.step() == pytest.approx(sched.step())
    with pytest.raises(ValueError, match="epoch"):
        sched2.load_state_dict({"epoch": np.int64(99)})
