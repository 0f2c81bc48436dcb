"""The tape-free fast path: ``no_grad`` and ``TLPModel.predict``.

The ISSUE 4 acceptance properties live here:

* ``no_grad()`` forward is bit-identical to the taped eval-mode forward
  across random configs and batch shapes, and tensors produced under it
  refuse ``backward()`` with a clear error;
* ``predict`` is bit-identical to the taped eval-mode forward for every
  config / batch shape / ``max_chunk`` / padding mask (chunk rows are
  independent), including the packed path's row rules: a chunk with
  fewer than 2 kept rows runs all its rows, ``L == 1`` keeps the taped
  1-row GEMM shape, and a sample with no kept row pools to zeros; and
  the attention block trimmed to each chunk's kept-row span (L = 25
  examples on either side of every key width);
* steady-state ``predict`` allocates no large buffers — every scratch
  probe hits the arena, for any mask or span at a warm geometry;
* ``Module.save`` / ``Module.load`` round-trips weights bit-exactly,
  so a reloaded model predicts bit-identical scores, an unreadable
  file raises ``CheckpointError`` naming it, and a save that fails
  partway through leaves the previous file loadable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from nn_reference import pooled_rows

import repro.nn as nn
from repro.core import CheckpointError, TLPModel, TLPModelConfig
from repro.nn import is_grad_enabled, no_grad
from repro.utils.rng import stream

_RNG = stream("test.predict")

_CONFIGS = (
    TLPModelConfig(emb=5, hidden=8, n_heads=2, n_res_blocks=0,
                   stream_name="test.predict.m0"),
    TLPModelConfig(emb=7, hidden=12, n_heads=4, n_res_blocks=1,
                   stream_name="test.predict.m1"),
    TLPModelConfig(emb=22, hidden=32, n_heads=2, n_res_blocks=2,
                   stream_name="test.predict.m2"),
    # smoke-train's geometry and the default Fig. 7 one perfbench serves.
    TLPModelConfig(emb=22, hidden=48, n_heads=4, n_res_blocks=2,
                   stream_name="test.predict.m3"),
    TLPModelConfig(emb=22, stream_name="test.predict.m4"),
)
_MODELS = {cfg: TLPModel(cfg).eval() for cfg in _CONFIGS}


def _batch(cfg, n, length):
    rng = stream(f"test.predict.batch.{n}.{length}.{cfg.emb}")
    X = rng.standard_normal((n, length, cfg.emb)).astype(np.float32)
    mask = (rng.random((n, length)) < 0.7).astype(np.float32)
    return X, mask


# -- no_grad -----------------------------------------------------------


def test_no_grad_toggles_and_restores():
    assert is_grad_enabled()
    with no_grad():
        assert not is_grad_enabled()
        with no_grad():  # reentrant
            assert not is_grad_enabled()
        assert not is_grad_enabled()
    assert is_grad_enabled()


def test_no_grad_restores_on_exception():
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert is_grad_enabled()


def test_no_grad_skips_the_tape():
    x = nn.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with no_grad():
        y = (x * np.float32(2.0)).sum()
    assert not y.requires_grad
    with pytest.raises(RuntimeError, match="no_grad"):
        y.backward()


def test_no_grad_refusal_propagates_to_derived_tensors():
    x = nn.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with no_grad():
        y = x * np.float32(2.0)
    z = y.sum()  # derived OUTSIDE the context, but its tape is broken
    with pytest.raises(RuntimeError, match="no_grad"):
        z.backward()
    # mixing with a live taped branch re-enters the tape: the no_grad
    # product is just a constant there, gradients flow to taped leaves
    w = (y * x).sum()
    w.backward()
    assert np.array_equal(x.grad, np.full(3, 2.0, dtype=np.float32))


def test_taped_ops_still_work_after_no_grad():
    x = nn.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with no_grad():
        (x * np.float32(2.0)).sum()
    loss = (x * np.float32(2.0)).sum()
    loss.backward()
    assert np.array_equal(x.grad, np.full(3, 2.0, dtype=np.float32))


@settings(max_examples=25, deadline=None)
@given(
    cfg=st.sampled_from(_CONFIGS),
    n=st.integers(1, 8),
    length=st.integers(1, 7),
)
def test_no_grad_forward_bit_identical_property(cfg, n, length):
    model = _MODELS[cfg]
    X, mask = _batch(cfg, n, length)
    taped = model(X, mask).data
    with no_grad():
        untaped = model(X, mask)
    assert not untaped.requires_grad
    assert np.array_equal(untaped.data, taped)


# -- predict bit-identity ----------------------------------------------


_MASK_KINDS = ("bernoulli", "prefix", "one_row", "none")


def _mask(kind, n, length, density, seed, span=None):
    """A padding mask: Bernoulli rows, TLPFeaturizer's prefix layout
    (real rows first, some samples with none), a single kept row in the
    whole batch, or no kept row at all.  ``span`` makes the longest
    prefix sample (the first) span exactly ``min(span, length)`` rows."""
    rng = stream(f"test.predict.mask.{seed}")
    if kind == "bernoulli":
        return (rng.random((n, length)) < density).astype(np.float32)
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


@settings(max_examples=60, deadline=None)
@given(
    cfg=st.sampled_from(_CONFIGS),
    n=st.integers(1, 9),
    length=st.integers(1, 7),
    max_chunk=st.integers(1, 12),
    kind=st.sampled_from(_MASK_KINDS),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    span=st.none() | st.integers(1, 7),
)
@example(cfg=_CONFIGS[0], n=2, length=1, max_chunk=4, kind="bernoulli",
         density=1.0, seed=0, span=None)
@example(cfg=_CONFIGS[0], n=3, length=4, max_chunk=2, kind="one_row",
         density=0.0, seed=0, span=None)
@example(cfg=_CONFIGS[1], n=6, length=5, max_chunk=4, kind="prefix",
         density=0.0, seed=3, span=None)
# The featurizer's L = 25 (Table 4) at spans on either side of each key
# width (PackedRows: 8, 16, 24, 25), the second chunk spanning less.
@example(cfg=_CONFIGS[3], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=7, span=7)
@example(cfg=_CONFIGS[3], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=8, span=8)
@example(cfg=_CONFIGS[3], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=9, span=9)
@example(cfg=_CONFIGS[3], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=16, span=16)
@example(cfg=_CONFIGS[3], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=17, span=17)
@example(cfg=_CONFIGS[3], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=24, span=24)
@example(cfg=_CONFIGS[3], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=25, span=25)
@example(cfg=_CONFIGS[4], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=7, span=7)
@example(cfg=_CONFIGS[4], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=8, span=8)
@example(cfg=_CONFIGS[4], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=9, span=9)
@example(cfg=_CONFIGS[4], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=16, span=16)
@example(cfg=_CONFIGS[4], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=17, span=17)
@example(cfg=_CONFIGS[4], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=24, span=24)
@example(cfg=_CONFIGS[4], n=6, length=25, max_chunk=4, kind="prefix",
         density=0.0, seed=25, span=25)
def test_predict_bit_identical_property(cfg, n, length, max_chunk, kind,
                                        density, seed, span):
    model = _MODELS[cfg]
    X, _ = _batch(cfg, n, length)
    mask = _mask(kind, n, length, density, seed, span)
    taped = model(X, mask).data
    fast = model.predict(X, mask, max_chunk=max_chunk)
    assert fast.dtype == np.float32 and fast.shape == (n,)
    assert np.array_equal(fast, taped)


# -- the prefix over distinct rows ---------------------------------------
#
# A search batch's candidates share most of their primitives, so most of
# its feature rows repeat: up1, up2 and the q/k/v projections run once
# per distinct row of the whole batch, before the trunk is chunked.


def _pooled_batch(cfg, n, length, pool, seed, twin="none"):
    """Features drawn from ``pool`` distinct rows (``pooled_rows``)."""
    return pooled_rows(stream(f"test.predict.pooled.{seed}"), n, length, cfg.emb, pool, twin)


@settings(max_examples=60, deadline=None)
@given(
    cfg=st.sampled_from(_CONFIGS),
    n=st.integers(1, 9),
    length=st.sampled_from((1, 2, 3, 6, 7, 25)),
    kind=st.sampled_from(_MASK_KINDS),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    pool=st.integers(1, 6),
    twin=st.sampled_from(("none", "ulp", "signed_zero")),
)
@example(cfg=_CONFIGS[0], n=6, length=4, kind="bernoulli", density=0.8, seed=0, pool=1,
         twin="none")
@example(cfg=_CONFIGS[0], n=6, length=4, kind="bernoulli", density=0.8, seed=1, pool=2,
         twin="ulp")
@example(cfg=_CONFIGS[0], n=7, length=1, kind="bernoulli", density=0.6, seed=2, pool=1,
         twin="none")
@example(cfg=_CONFIGS[2], n=5, length=6, kind="prefix", density=0.0, seed=3, pool=3,
         twin="signed_zero")
@example(cfg=_CONFIGS[4], n=6, length=25, kind="prefix", density=0.0, seed=4, pool=6,
         twin="ulp")
def test_predict_bit_identical_on_repeated_rows_property(cfg, n, length, kind, density,
                                                        seed, pool, twin):
    """``predict`` at several chunk sizes gives eval ``forward``'s bytes
    when rows repeat: one and two distinct rows, near twins kept apart,
    ``L == 1`` and samples with no kept row included."""
    model = _MODELS[cfg]
    X = _pooled_batch(cfg, n, length, pool, seed, twin)
    mask = _mask(kind, n, length, density, seed)
    taped = model(X, mask).data
    for max_chunk in (1, 2, 5, n):
        assert np.array_equal(model.predict(X, mask, max_chunk=max_chunk), taped), max_chunk


def test_prefix_gemms_run_once_per_distinct_row(monkeypatch):
    """up1, up2 and the q/k/v projections see the batch's distinct kept
    rows and one spare row, never the kept rows: once per ``predict``
    call whatever the chunk size, and once per ``forward``."""
    from repro.nn import functional as F

    cfg = _CONFIGS[2]
    model = _MODELS[cfg]
    X = _pooled_batch(cfg, 24, 6, 5, seed=5)
    mask = (np.arange(6) < np.arange(24)[:, None] % 5 + 2).astype(np.float32)
    kept = X.reshape(-1, cfg.emb)[mask.reshape(-1) != 0]
    distinct = np.unique(kept.view(np.dtype((np.void, cfg.emb * 4))).reshape(-1)).shape[0]
    assert distinct <= 5 < kept.shape[0]
    calls: list[tuple[str, int]] = []
    linear = F.linear

    def recording(arena, name, x, *args, **kwargs):
        calls.append((name, x.shape[0]))
        return linear(arena, name, x, *args, **kwargs)

    monkeypatch.setattr(F, "linear", recording)
    prefix = ("up1", "up2", "attn.q_proj", "attn.k_proj", "attn.v_proj")
    for run in (lambda: model.predict(X, mask, max_chunk=8), lambda: model(X, mask)):
        calls.clear()
        run()
        assert [c for c in calls if c[0] in prefix] == [(p, distinct + 1) for p in prefix]


@pytest.mark.parametrize("length", [1, 4])
@pytest.mark.parametrize("pool", [1, 2, 6])
def test_prefix_tables_hold_the_kept_rows_gemm_bytes(pool, length):
    """Each table row the prefix computes once per distinct row has the
    bytes the kept rows' own GEMMs give it, through up1, up2 and the
    q/k/v projections: with one distinct row too, and at ``L == 1``
    (each row its own gemv)."""
    from repro.nn import functional as F

    cfg = _CONFIGS[0]
    model = _MODELS[cfg]
    X = _pooled_batch(cfg, 6, length, pool, seed=pool)
    rows = F.PackedRows(np.ones((6, length), dtype=np.float32))
    scratch = F.TapeScratch()
    x = rows.gather(scratch, "x", X)
    distinct = F.DistinctRows(scratch, x, rows.n * rows.length)
    assert distinct.count == len(np.unique(X.reshape(-1, cfg.emb), axis=0))
    h1 = F.linear(scratch, "up1", x, model.up1.weight.data, model.up1.bias.data,
                  relu=True, rows=rows)
    h2 = F.linear(scratch, "up2", h1, model.up2.weight.data, model.up2.bias.data,
                  relu=True, rows=rows)
    expected = [h1, h2, *[F.linear(scratch, "p", h2, p.weight.data, p.bias.data, rows=rows)
                          for p in (model.attention.q_proj, model.attention.k_proj,
                                    model.attention.v_proj)]]
    for table, want in zip(model._prefix(distinct, scratch), expected):
        width = want.shape[-1]
        assert table.shape == distinct.lead + (width,)
        got = table.reshape(-1, width)[distinct.inverse]
        assert got.tobytes() == want.reshape(-1, width).tobytes()


def test_prefix_keeps_the_gemv_shape_with_one_distinct_row():
    """A batch whose kept rows are all one row: the prefix GEMMs still run
    2 rows (the row and the spare), not the 1-row gemv, whose bits differ
    on ``_CONFIGS[0]``'s up2 shape."""
    cfg = _CONFIGS[0]
    model = _MODELS[cfg]
    X = np.broadcast_to(_batch(cfg, 1, 1)[0], (6, 4, cfg.emb)).copy()
    mask = (np.arange(4) < np.array([[4], [2], [0], [3], [1], [4]])).astype(np.float32)
    for max_chunk in (1, 3, 6):
        assert np.array_equal(model.predict(X, mask, max_chunk=max_chunk),
                              model(X, mask).data)


# -- the packed path's row rules ---------------------------------------
#
# _CONFIGS[0]'s up2 (4 -> 8) is a weight shape where a 1-row GEMM (gemv)
# and a row of a multi-row GEMM differ in the last bits on this BLAS, so
# breaking either call-shape rule shows up as a bit difference here.


def test_predict_chunk_with_one_kept_row_runs_all_rows():
    cfg = _CONFIGS[0]
    model = _MODELS[cfg]
    X, _ = _batch(cfg, 4, 5)
    mask = np.zeros((4, 5), dtype=np.float32)
    mask[2, 1] = 1.0  # one kept row: a packed 1-row GEMM would be a gemv
    assert np.array_equal(model.predict(X, mask, max_chunk=4), model(X, mask).data)
    # Chunks of 1: every chunk but one has no kept row at all.
    assert np.array_equal(model.predict(X, mask, max_chunk=1), model(X, mask).data)


def test_predict_length_one_keeps_the_taped_gemv_shape():
    cfg = _CONFIGS[0]
    model = _MODELS[cfg]
    X, _ = _batch(cfg, 7, 1)
    mask = np.array([[1], [1], [0], [1], [0], [1], [1]], dtype=np.float32)
    for max_chunk in (1, 2, 7):
        assert np.array_equal(model.predict(X, mask, max_chunk=max_chunk),
                              model(X, mask).data)


def test_predict_sample_without_kept_row_pools_to_zeros():
    cfg = _CONFIGS[2]
    model = _MODELS[cfg]
    X, _ = _batch(cfg, 5, 6)
    mask = (np.arange(6) < np.array([[6], [0], [3], [0], [1]])).astype(np.float32)
    fast = model.predict(X, mask)
    assert np.array_equal(fast, model(X, mask).data)
    # A zero pool scores exactly the head bias.
    head_bias = model.head.bias.data[0]
    assert fast[1] == head_bias and fast[3] == head_bias


def test_predict_chunking_is_invisible():
    cfg = _CONFIGS[2]
    model = _MODELS[cfg]
    X, mask = _batch(cfg, 13, 6)
    full = model.predict(X, mask, max_chunk=13)
    for chunk in (1, 2, 5, 13, 64):
        assert np.array_equal(model.predict(X, mask, max_chunk=chunk), full)


def test_predict_tracks_weight_updates():
    """predict reads the weights on every call: it sees in-place edits."""
    cfg = _CONFIGS[0]
    model = TLPModel(cfg).eval()
    X, mask = _batch(cfg, 4, 3)
    before = model.predict(X, mask)
    model.head.bias.data += np.float32(1.0)
    after = model.predict(X, mask)
    assert np.array_equal(after, before + np.float32(1.0))
    assert np.array_equal(after, model(X, mask).data)


# -- steady-state allocation discipline --------------------------------


def test_predict_steady_state_is_allocation_free():
    cfg = _CONFIGS[2]
    model = TLPModel(cfg).eval()
    X, mask = _batch(cfg, 24, 6)
    model.predict(X, mask, max_chunk=8)   # cold: populate the arena
    model._arena.reset_counters()
    model.predict(X, mask, max_chunk=8)   # warm: must be all hits
    info = model.scratch_info()
    assert info["misses"] == 0, info
    assert info["hits"] > 0
    assert info["buffers"] > 0 and info["nbytes"] > 0


def test_predict_scratch_is_sized_by_chunk_capacity():
    """A warm ``predict`` at the same geometry allocates nothing for a
    mask with another kept-row count: packed buffers are sized by the
    chunk capacity, not keyed by the count."""
    cfg = _CONFIGS[2]
    model = TLPModel(cfg).eval()
    X, _ = _batch(cfg, 24, 6)
    model.predict(X, _mask("prefix", 24, 6, 0.0, 1), max_chunk=8)
    nbytes = model.scratch_info()["nbytes"]
    for kind, density in (("bernoulli", 0.2), ("bernoulli", 1.0),
                          ("prefix", 0.0), ("one_row", 0.0), ("none", 0.0)):
        mask = _mask(kind, 24, 6, density, 2)
        model._arena.reset_counters()
        fast = model.predict(X, mask, max_chunk=8)
        info = model.scratch_info()
        assert info["misses"] == 0 and info["nbytes"] == nbytes, (kind, info)
        assert np.array_equal(fast, model(X, mask).data)
    # At L = 25 the attention block is trimmed to each chunk's span and
    # key width; its buffers are views of ones sized by the full block.
    X, _ = _batch(cfg, 24, 25)
    model.predict(X, _mask("prefix", 24, 25, 0.0, 1, span=3), max_chunk=8)
    nbytes = model.scratch_info()["nbytes"]
    for kind, span in (("prefix", 8), ("prefix", 9), ("prefix", 17), ("prefix", 25),
                       ("prefix", 12), ("bernoulli", None), ("one_row", None)):
        mask = _mask(kind, 24, 25, 0.3, span or 3, span)
        model._arena.reset_counters()
        fast = model.predict(X, mask, max_chunk=8)
        info = model.scratch_info()
        assert info["misses"] == 0 and info["nbytes"] == nbytes, (kind, span, info)
        assert np.array_equal(fast, model(X, mask).data)


def test_predict_scratch_is_bounded_across_batch_sizes():
    """Every call site keeps one buffer, grown to its largest request, so
    a sweep of batch sizes leaves as many buffers as the first call, and
    a warm call at any size already seen allocates nothing."""
    cfg = _CONFIGS[1]
    model = TLPModel(cfg).eval()
    X, mask = _batch(cfg, 333, 6)
    model.predict(X[:40], mask[:40], max_chunk=128)
    buffers = model.scratch_info()["buffers"]
    for n in (41, 57, 63, 200, 201, 333):
        fast = model.predict(X[:n], mask[:n], max_chunk=128)
        assert model.scratch_info()["buffers"] == buffers, n
        assert np.array_equal(fast, model(X[:n], mask[:n]).data), n
    nbytes = model.scratch_info()["nbytes"]
    for n in (40, 201, 333):
        model._arena.reset_counters()
        model.predict(X[:n], mask[:n], max_chunk=128)
        info = model.scratch_info()
        assert info["misses"] == 0 and info["nbytes"] == nbytes, (n, info)


def test_predict_takes_each_scratch_name_at_one_size():
    """Pooling by name is sound only if no call site holds one name at
    two live sizes: within one chunk's pass and the head, every name is
    asked for one pooled size."""
    cfg = _CONFIGS[3]
    model = TLPModel(cfg).eval()
    X, mask = _batch(cfg, 24, 25)
    sizes: dict[str, set[int]] = {}
    take = type(model._arena).take

    def recording(arena, name, shape, capacity=None):
        sizes.setdefault(name, set()).add(int(np.prod(capacity or shape)))
        return take(arena, name, shape, capacity)

    model._arena.take = recording.__get__(model._arena)
    model.predict(X, mask, max_chunk=24)
    assert sizes and all(len(v) == 1 for v in sizes.values()), sizes


def test_predict_geometry_validation():
    cfg = _CONFIGS[0]
    model = _MODELS[cfg]
    X, mask = _batch(cfg, 3, 4)
    with pytest.raises(ValueError, match="expected features"):
        model.predict(X[:, :, :-1], mask)
    with pytest.raises(ValueError, match="mask shape"):
        model.predict(X, mask[:, :-1])
    with pytest.raises(ValueError, match="max_chunk"):
        model.predict(X, mask, max_chunk=0)
    # forward shares the same validation
    with pytest.raises(ValueError, match="mask shape"):
        model(X, mask[:2])


# -- checkpoint round-trip ---------------------------------------------


def test_save_load_round_trips_bit_exactly(tmp_path):
    cfg_a = _CONFIGS[1]
    saved = TLPModel(cfg_a).eval()
    path = saved.save(tmp_path / "tlp.npz")

    other = TLPModelConfig(emb=cfg_a.emb, hidden=cfg_a.hidden,
                           n_heads=cfg_a.n_heads,
                           n_res_blocks=cfg_a.n_res_blocks,
                           stream_name="test.predict.other")
    restored = TLPModel(other).eval()
    X, mask = _batch(cfg_a, 5, 4)
    assert not np.array_equal(restored.predict(X, mask),
                              saved.predict(X, mask))

    restored.load(path)
    for name, p in restored.named_parameters():
        assert np.array_equal(p.data, dict(saved.named_parameters())[name].data)
    assert np.array_equal(restored.predict(X, mask), saved.predict(X, mask))
    assert np.array_equal(restored(X, mask).data, saved(X, mask).data)


def test_load_rejects_architecture_mismatch(tmp_path):
    path = TLPModel(_CONFIGS[0]).save(tmp_path / "small.npz")
    with pytest.raises(ValueError):
        TLPModel(_CONFIGS[1]).load(path)


def test_load_names_an_unreadable_file(tmp_path):
    """A truncated archive raises the CheckpointError that
    ``Trainer.load_checkpoint`` raises, naming the file, and leaves the
    weights as they were."""
    assert nn.CheckpointError is CheckpointError
    model = TLPModel(_CONFIGS[0])
    before = model.state_dict()
    blob = model.save(tmp_path / "ok.npz").read_bytes()
    for cut in (len(blob) // 2, 10, 0):
        truncated = tmp_path / f"truncated-{cut}.npz"
        truncated.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match=f"truncated-{cut}.npz"):
            model.load(truncated)
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, before[name])


def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch):
    """A save that dies partway through writing leaves the last good
    file in place: it still loads bit-identical weights."""
    path = tmp_path / "serving.npz"
    saved = TLPModel(_CONFIGS[1])
    saved.save(path)
    other = TLPModel(TLPModelConfig(emb=7, hidden=12, n_heads=4, n_res_blocks=1,
                                    stream_name="test.predict.failed_save"))

    def dies_partway(fh, **arrays):
        fh.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", dies_partway)
    with pytest.raises(OSError, match="disk full"):
        other.save(path)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["serving.npz"]
    restored = TLPModel(_CONFIGS[1]).load(path)
    for name, p in restored.named_parameters():
        assert p.data.tobytes() == dict(saved.named_parameters())[name].data.tobytes()
