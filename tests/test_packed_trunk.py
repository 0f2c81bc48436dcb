"""The packed trunk against the dense op-level reference.

``TLPModel.pool_features`` computes only the rows whose mask is
non-zero, each layer one packed kernel with a hand-written backward,
and scores attention over the kept-row span only.
:func:`nn_reference.dense_forward` is the dense model in raw ``Tensor``
ops: every row of every sequence through every layer, the whole
``L x L`` attention block, padding zeroed at the pool.  A training
step's scores, its lambda-rank loss and every parameter gradient must
agree byte for byte, for the prefix masks the featurizer emits and for
the edge cases it never emits; so must ``predict`` with the eval-mode
forward.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st
from nn_reference import dense_forward, pooled_rows

from repro.core import MTLTLPModel, TLPModel, TLPModelConfig
from repro.nn import Adam, lambda_rank_loss_grouped
from repro.utils.rng import stream


# The model geometries the repo trains and serves: unit tests (hidden 8),
# the perfbench tests (16), smoke-train and BENCH_training (48), the nn
# benchmarks (64) and the default Fig. 7 config perfbench runs (256).
_CONFIGS = (
    TLPModelConfig(emb=6, hidden=8, n_heads=2, n_res_blocks=1),
    TLPModelConfig(emb=22, hidden=16, n_heads=2, n_res_blocks=1),
    TLPModelConfig(emb=22, hidden=48, n_heads=4, n_res_blocks=2),
    TLPModelConfig(emb=22, hidden=64, n_heads=4, n_res_blocks=2),
    TLPModelConfig(emb=22),
)
_MODELS = [TLPModel(cfg) for cfg in _CONFIGS] + [
    MTLTLPModel(("a", "b", "c"), TLPModelConfig(emb=22, hidden=16, n_heads=2,
                                                n_res_blocks=1)),
]

_MASK_KINDS = ("bernoulli", "prefix", "one_row", "empty_sample", "none")


def _mask(kind, n, length, density, rng, span=None):
    """Bernoulli rows, the featurizer's prefix layout, a single kept row
    in the whole batch, Bernoulli rows with sample 0 empty, or no kept
    row at all.  ``span`` makes the longest prefix sample (the first)
    span exactly ``min(span, length)`` rows."""
    if kind in ("bernoulli", "empty_sample"):
        mask = (rng.random((n, length)) < density).astype(np.float32)
        if kind == "empty_sample":
            mask[0] = 0.0
        return mask
    if kind == "prefix":
        top = length if span is None else min(span, length)
        kept = rng.integers(0, top + 1, size=n)
        if span is not None:
            kept[0] = top
        return (np.arange(length) < kept[:, None]).astype(np.float32)
    mask = np.zeros((n, length), dtype=np.float32)
    if kind == "one_row":
        mask.reshape(-1)[rng.integers(n * length)] = 1.0
    return mask


def _batch(model, n, length, kind, density, seed, span=None, pool=None, twin="none"):
    """A training batch; with ``pool`` its feature rows repeat (``pooled_rows``)."""
    rng = stream(f"test.packed_trunk.batch.{seed}")
    emb = model.config.emb
    if pool is None:
        X = rng.standard_normal((n, length, emb)).astype(np.float32)
    else:
        X = pooled_rows(rng, n, length, emb, pool, twin)
    mask = _mask(kind, n, length, density, rng, span)
    labels = rng.uniform(0.1, 1.0, size=n).astype(np.float32)
    gids = np.sort(rng.integers(0, 3, size=n))
    pids = rng.integers(0, 3, size=n)
    return X, mask, labels, gids, pids


def _step(model, X, mask, labels, gids, pids, optimizer=None, dense=False):
    """Scores, loss and every parameter gradient of one training step,
    through the model or through the dense reference."""
    model.zero_grad()
    mtl = isinstance(model, MTLTLPModel)
    if dense:
        scores = dense_forward(model, X, mask, pids if mtl else None)
    else:
        scores = model(X, mask, pids) if mtl else model(X, mask)
    loss = lambda_rank_loss_grouped(scores, labels, gids)
    loss.backward()
    out = [scores.data.copy(), loss.data.copy()]
    out += [None if p.grad is None else p.grad.copy() for p in model.parameters()]
    if optimizer is not None:
        optimizer.step()
    return out


def _assert_same_bytes(packed, dense):
    assert len(packed) == len(dense)
    for i, (a, b) in enumerate(zip(packed, dense)):
        if a is None or b is None:
            assert a is None and b is None, i
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, i
        assert a.tobytes() == b.tobytes(), i


@settings(max_examples=80, deadline=None)
@given(
    model_i=st.integers(0, len(_MODELS) - 1),
    n=st.integers(1, 6),
    length=st.sampled_from((1, 2, 3, 7, 25, 33)),
    kind=st.sampled_from(_MASK_KINDS),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    span=st.none() | st.integers(1, 25),
)
@example(model_i=4, n=4, length=25, kind="prefix", density=0.0, seed=0, span=None)
@example(model_i=2, n=3, length=7, kind="one_row", density=0.0, seed=1, span=None)
@example(model_i=0, n=4, length=3, kind="empty_sample", density=0.6, seed=2, span=None)
@example(model_i=5, n=5, length=2, kind="none", density=0.0, seed=3, span=None)
@example(model_i=1, n=6, length=1, kind="bernoulli", density=0.5, seed=4, span=None)
# The featurizer's L = 25 (Table 4) at spans on either side of each key
# width of the trimmed attention block (PackedRows: 8, 16, 24, 25), at
# smoke-train's hidden 48 and the default hidden 256.
@example(model_i=2, n=4, length=25, kind="prefix", density=0.0, seed=7, span=7)
@example(model_i=2, n=4, length=25, kind="prefix", density=0.0, seed=8, span=8)
@example(model_i=2, n=4, length=25, kind="prefix", density=0.0, seed=9, span=9)
@example(model_i=2, n=4, length=25, kind="prefix", density=0.0, seed=16, span=16)
@example(model_i=2, n=4, length=25, kind="prefix", density=0.0, seed=17, span=17)
@example(model_i=2, n=4, length=25, kind="prefix", density=0.0, seed=24, span=24)
@example(model_i=2, n=4, length=25, kind="prefix", density=0.0, seed=25, span=25)
@example(model_i=4, n=4, length=25, kind="prefix", density=0.0, seed=7, span=7)
@example(model_i=4, n=4, length=25, kind="prefix", density=0.0, seed=8, span=8)
@example(model_i=4, n=4, length=25, kind="prefix", density=0.0, seed=9, span=9)
@example(model_i=4, n=4, length=25, kind="prefix", density=0.0, seed=16, span=16)
@example(model_i=4, n=4, length=25, kind="prefix", density=0.0, seed=17, span=17)
@example(model_i=4, n=4, length=25, kind="prefix", density=0.0, seed=24, span=24)
@example(model_i=4, n=4, length=25, kind="prefix", density=0.0, seed=25, span=25)
# From L = 32 the block keeps its full width (PackedRows); trimmed to the
# span, these two batches round differently from the full block.
@example(model_i=1, n=4, length=32, kind="prefix", density=0.0, seed=0, span=20)
@example(model_i=4, n=4, length=48, kind="prefix", density=0.0, seed=0, span=20)
def test_packed_trunk_bit_identical_to_dense_property(model_i, n, length, kind,
                                                      density, seed, span):
    model = _MODELS[model_i]
    batch = _batch(model, n, length, kind, density, seed, span)
    packed = _step(model, *batch)
    dense = _step(model, *batch, dense=True)
    _assert_same_bytes(packed, dense)


@settings(max_examples=80, deadline=None)
@given(
    model_i=st.integers(0, len(_MODELS) - 1),
    n=st.integers(1, 6),
    length=st.sampled_from((1, 2, 3, 7, 25, 33)),
    kind=st.sampled_from(_MASK_KINDS),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    pool=st.integers(1, 6),
    twin=st.sampled_from(("none", "ulp", "signed_zero")),
)
# One and two distinct rows (the prefix's GEMMs at their fewest rows),
# L == 1 (each row its own gemv), an empty sample, and MTL.
@example(model_i=0, n=4, length=3, kind="bernoulli", density=0.7, seed=0, pool=1, twin="none")
@example(model_i=0, n=4, length=3, kind="bernoulli", density=0.7, seed=1, pool=2, twin="ulp")
@example(model_i=1, n=6, length=1, kind="bernoulli", density=0.5, seed=2, pool=1, twin="none")
@example(model_i=1, n=6, length=1, kind="bernoulli", density=0.5, seed=3, pool=3, twin="ulp")
@example(model_i=2, n=4, length=7, kind="empty_sample", density=0.6, seed=4, pool=2,
         twin="signed_zero")
@example(model_i=4, n=4, length=25, kind="prefix", density=0.0, seed=5, pool=4, twin="ulp")
@example(model_i=5, n=5, length=7, kind="prefix", density=0.0, seed=6, pool=1, twin="none")
def test_packed_trunk_bit_identical_to_dense_on_repeated_rows(model_i, n, length, kind,
                                                             density, seed, pool, twin):
    """Feature rows drawn from a few distinct rows, as in a candidate
    batch: the prefix runs once per distinct row, and the step still has
    the dense oracle's scores, loss and gradients, byte for byte."""
    model = _MODELS[model_i]
    batch = _batch(model, n, length, kind, density, seed, pool=pool, twin=twin)
    packed = _step(model, *batch)
    dense = _step(model, *batch, dense=True)
    _assert_same_bytes(packed, dense)


def test_dropout_step_bit_identical_to_dense():
    """Dropout draws its keep-mask at the dense shape and gathers the
    kept rows, so packed and dense training give the same bits, step
    after step, and leave the generator in the same state."""
    cfg = TLPModelConfig(emb=22, hidden=16, n_heads=2, n_res_blocks=1, dropout=0.1)
    packed_model, dense_model = TLPModel(cfg), TLPModel(cfg)
    packed_opt = Adam(packed_model.parameters())
    dense_opt = Adam(dense_model.parameters())
    for seed in range(3):
        batch = _batch(packed_model, 6, 7, "prefix", 0.0, seed)
        packed = _step(packed_model, *batch, optimizer=packed_opt)
        dense = _step(dense_model, *batch, optimizer=dense_opt, dense=True)
        _assert_same_bytes(packed, dense)
    for (_, a), (_, b) in zip(packed_model.named_parameters(),
                              dense_model.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    assert packed_model.dropout._rng.random() == dense_model.dropout._rng.random()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 9),
    length=st.sampled_from((1, 2, 3, 7, 25)),
    kind=st.sampled_from(_MASK_KINDS),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
@example(n=9, length=25, kind="prefix", density=0.0, seed=0)
@example(n=5, length=1, kind="empty_sample", density=0.6, seed=1)
def test_mtl_predict_bit_identical_to_eval_forward(n, length, kind, density, seed):
    """``MTLTLPModel.predict`` runs the trunk's chunked pass and then the
    heads once over the batch: the bytes of the eval-mode forward."""
    model = _MODELS[-1]
    X, mask, _, _, pids = _batch(model, n, length, kind, density, seed)
    model.eval()
    try:
        expected = model(X, mask, pids).data
        assert model.predict(X, mask, pids).tobytes() == expected.tobytes()
        model.trunk._arena.reset_counters()  # warm: every scratch probe hits
        assert model.predict(X, mask, pids).tobytes() == expected.tobytes()
        assert model.trunk.scratch_info()["misses"] == 0
    finally:
        model.train()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 9),
    length=st.sampled_from((1, 2, 3, 7, 25)),
    kind=st.sampled_from(_MASK_KINDS),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    pool=st.integers(1, 6),
)
@example(n=9, length=25, kind="prefix", density=0.0, seed=0, pool=1)
@example(n=5, length=1, kind="empty_sample", density=0.6, seed=1, pool=2)
def test_mtl_predict_bit_identical_to_eval_forward_on_repeated_rows(n, length, kind,
                                                                    density, seed, pool):
    """The MTL trunk's whole-batch prefix over a few distinct rows, in
    chunks of several sizes, gives the eval-mode forward's bytes."""
    model = _MODELS[-1]
    X, mask, _, _, pids = _batch(model, n, length, kind, density, seed, pool=pool)
    model.eval()
    try:
        expected = model(X, mask, pids).data
        for max_chunk in (1, 2, n):
            pooled = model.trunk.pool_chunks(X, mask, max_chunk)
            assert pooled.tobytes() == model.trunk.pool_features(X, mask).data.tobytes()
        assert model.predict(X, mask, pids).tobytes() == expected.tobytes()
    finally:
        model.train()
