"""Properties of the batch feature-extraction pipeline (repro.core).

The load-bearing claims, each pinned by a hypothesis property:

1. ``transform`` is deterministic — across repeated calls on one
   featurizer and across independently fitted featurizers.
2. The grouped batch encoder (``transform_into``, and ``transform`` over
   fresh arrays) is *bit-identical* to the naive per-primitive reference
   extractor, for both Table 4 geometries, an empty batch and every
   corruption class of ``tests/corruptions.py`` (or raises what the
   reference raises).
3. ``crop_pad`` preserves the kept prefix exactly and zeroes the rest,
   at 25x22 and 54x40.
4. Fail-closed: every sampler-generated sequence the extractor is fed
   passes the batch verifier with no errors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corruptions import CORRUPTIONS
from repro.analysis import has_errors, verify_many
from repro.core import (
    N_KINDS,
    TABLE4_CROPPED,
    TABLE4_UNCROPPED,
    PostprocessConfig,
    TLPFeaturizer,
    abstract,
    crop_pad,
    reference_transform,
)
from repro.tensorir import Primitive, SketchConfig, SketchGenerator, sample_subgraph_pool
from repro.tensorir import primitives as P
from repro.utils.rng import stream

_POOL = sample_subgraph_pool()
_GEN = SketchGenerator(SketchConfig("cpu"))
_CORPUS = [
    schedule
    for sg in _POOL
    for schedule in _GEN.generate_many(sg, 6, stream(f"test.extractor.{sg.name}"))
]
_CONFIGS = (TABLE4_CROPPED, TABLE4_UNCROPPED)
_FITTED = {cfg: TLPFeaturizer(cfg).fit(_CORPUS) for cfg in _CONFIGS}

batches = st.lists(st.sampled_from(_CORPUS), min_size=1, max_size=16)


@settings(max_examples=40, deadline=None)
@given(batch=batches)
def test_transform_is_deterministic(batch):
    fitted = _FITTED[TABLE4_CROPPED]
    X1, M1 = fitted.transform(batch)
    X2, M2 = fitted.transform(batch)
    assert np.array_equal(X1, X2) and np.array_equal(M1, M2)
    # An independently fitted featurizer agrees bit-for-bit: the vocab is
    # built in sorted order, so fitting is order- and instance-independent.
    fresh = TLPFeaturizer(TABLE4_CROPPED).fit(list(reversed(_CORPUS)))
    X3, M3 = fresh.transform(batch)
    assert np.array_equal(X1, X3) and np.array_equal(M1, M3)


@settings(max_examples=40, deadline=None)
@given(batch=batches, config=st.sampled_from(_CONFIGS))
def test_batch_matches_naive_reference(batch, config):
    featurizer = _FITTED[config]
    X, M = featurizer.transform(batch)
    X_ref, M_ref = reference_transform(featurizer, batch)
    assert X.dtype == X_ref.dtype == np.float32
    assert np.array_equal(X, X_ref)
    assert np.array_equal(M, M_ref)


@settings(max_examples=80, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=60),
    width=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=2**16),
    config=st.sampled_from(_CONFIGS),
)
def test_crop_pad_preserves_prefix(length, width, seed, config):
    rows = (
        stream(f"test.croppad.{seed}")
        .standard_normal((length, width))
        .astype(np.float32)
    )
    out, kept = crop_pad(rows, config)
    kept_rows = min(length, config.seq_len)
    kept_cols = min(width, config.emb)
    assert kept == kept_rows
    assert out.shape == (config.seq_len, config.emb)
    assert np.array_equal(out[:kept_rows, :kept_cols], rows[:kept_rows, :kept_cols])
    assert not out[kept_rows:].any()
    assert not out[:, kept_cols:].any()


@settings(max_examples=20, deadline=None)
@given(sg=st.sampled_from(_POOL), seed=st.integers(min_value=0, max_value=2**16))
def test_extractor_inputs_pass_verifier_fail_closed(sg, seed):
    """generate_many output — the extractor's feed — is verified clean."""
    schedules = _GEN.generate_many(sg, 4, stream(f"test.failclosed.{sg.name}.{seed}"))
    diag_lists = verify_many(sg, [s.primitives for s in schedules])
    assert len(diag_lists) == len(schedules)
    assert all(not has_errors(diags) for diags in diag_lists)


# -- direct (non-property) edge cases -----------------------------------


def test_transform_before_fit_raises():
    with pytest.raises(RuntimeError, match="before fit"):
        TLPFeaturizer().transform(_CORPUS[:1])
    with pytest.raises(RuntimeError, match="before fit"):
        TLPFeaturizer().transform([])


@pytest.mark.parametrize("config", _CONFIGS, ids=lambda c: f"{c.seq_len}x{c.emb}")
def test_empty_batch_gives_empty_float32_planes(config):
    X, mask = _FITTED[config].transform([])
    X_ref, mask_ref = reference_transform(_FITTED[config], [])
    assert X.dtype == mask.dtype == np.float32
    assert X.shape == X_ref.shape == (0, config.seq_len, config.emb)
    assert mask.shape == mask_ref.shape == (0, config.seq_len)


def _encoded_or_raised(encode, batch):
    """``(X bytes, mask bytes)`` of an encode, or the type it raised."""
    try:
        X, mask = encode(batch)
    except Exception as exc:  # the type is what the encoders must share
        return type(exc)
    return X.dtype, X.shape, X.tobytes(), mask.dtype, mask.tobytes()


@pytest.mark.parametrize("config", _CONFIGS, ids=lambda c: f"{c.seq_len}x{c.emb}")
@pytest.mark.parametrize("target", ["cpu", "gpu"])
def test_corruption_classes_encode_as_the_reference_does(target, config):
    """Every corrupted batch of ``tests/corruptions.py`` (each class on
    every candidate it applies to, one batch per pool subgraph) gives the
    reference's bytes, or raises the reference's exception type."""
    gen = SketchGenerator(SketchConfig(target))
    n_batches = 0
    for sg in _POOL:
        base = gen.generate_many(sg, 8, stream(f"test.extractor.corrupt.{sg.name}.{target}"))
        featurizer = TLPFeaturizer(config).fit(base)
        for _code, _name, mutator in CORRUPTIONS:
            batch = [mutator(s) or s.primitives for s in base]
            n_batches += 1
            want = _encoded_or_raised(lambda b: reference_transform(featurizer, b), batch)
            assert _encoded_or_raised(featurizer.transform, batch) == want
    assert n_batches == len(_POOL) * len(CORRUPTIONS)


_ODD_SEQUENCES = {
    "raw-string kind": (Primitive("SP", ("i",), (64, 8)), P.split("i", 64, (8,))),
    "bool and numpy ints": (Primitive("SP", ("i",), (64, True)),
                            P.split("i", np.int64(64), (np.int64(4),))),
    "float int": (Primitive("SP", ("i",), (64, 2.5)),),
    "int past float32": (Primitive("SP", ("i",), (64, 2**31 + 1)),),
    "unseen characters": (P.annotate("zzz", "vectorize"),),
    "empty sequence": (),
    "longer than seq_len": tuple(P.split("i", 64, (f,)) for f in range(1, 61)),
}


@pytest.mark.parametrize("name", sorted(_ODD_SEQUENCES))
def test_hand_built_sequences_encode_as_the_reference_does(name):
    featurizer = _FITTED[TABLE4_CROPPED]
    batch = [_CORPUS[0], _ODD_SEQUENCES[name], _CORPUS[1]]
    want = _encoded_or_raised(lambda b: reference_transform(featurizer, b), batch)
    assert not isinstance(want, type)
    assert _encoded_or_raised(featurizer.transform, batch) == want


def test_transform_returns_fresh_arrays():
    """``transform`` never hands out a buffer anyone else writes: not an
    earlier result, not the pair the featurizer holds for scorers."""
    featurizer = TLPFeaturizer(TABLE4_CROPPED).fit(_CORPUS)
    held = featurizer._buffers(len(_CORPUS))
    X1, mask1 = featurizer.transform(_CORPUS)
    X2, mask2 = featurizer.transform(_CORPUS)
    for a, b in [(X1, X2), (mask1, mask2), (X1, held[0]), (mask1, held[1])]:
        assert not np.shares_memory(a, b)
    assert X1.tobytes() == X2.tobytes() and mask1.tobytes() == mask2.tobytes()


def test_fit_empty_corpus_raises():
    with pytest.raises(ValueError, match="non-empty"):
        TLPFeaturizer().fit([])


def test_degenerate_geometry_raises():
    with pytest.raises(ValueError):
        PostprocessConfig(seq_len=0, emb=22)


def test_row_layout_leads_with_one_hot_kind():
    fitted = _FITTED[TABLE4_CROPPED]
    schedule = _CORPUS[0]
    X, mask = fitted.transform([schedule])
    kept = int(mask[0].sum())
    assert kept == min(len(schedule.primitives), TABLE4_CROPPED.seq_len)
    for j in range(kept):
        one_hot = X[0, j, :N_KINDS]
        assert one_hot.sum() == 1.0
        assert one_hot[abstract(schedule.primitives[j]).kind_index] == 1.0


# -- buffer donation (transform_into) -----------------------------------


def _buffers(cfg, n):
    X = np.full((n, cfg.seq_len, cfg.emb), np.nan, dtype=np.float32)
    mask = np.full((n, cfg.seq_len), np.nan, dtype=np.float32)
    return X, mask


@settings(max_examples=25, deadline=None)
@given(batch=batches, config=st.sampled_from(_CONFIGS))
def test_transform_into_is_bit_identical_to_transform(batch, config):
    """Both equal the naive reference, the independent oracle."""
    fitted = _FITTED[config]
    X_ref, mask_ref = reference_transform(fitted, batch)
    X_new, mask_new = fitted.transform(batch)
    X_buf, mask_buf = _buffers(config, len(batch) + 3)  # oversized ok
    X, mask = fitted.transform_into(batch, X_buf, mask_buf)
    for got, got_mask in ((X, mask), (X_new, mask_new)):
        assert got.shape == X_ref.shape and got_mask.shape == mask_ref.shape
        assert got.tobytes() == X_ref.tobytes()
        assert got_mask.tobytes() == mask_ref.tobytes()
    # The returned views alias the donated buffers — no new tensors.
    assert X.base is X_buf and mask.base is mask_buf


def test_transform_into_steady_state_allocates_zero_rows():
    """The zero-alloc pin: after a warm-up pass every primitive row is
    memoized, so a second pass over the same buffers materializes no new
    row arrays (``rows_encoded`` frozen) and grows no caches."""
    featurizer = TLPFeaturizer(TABLE4_CROPPED).fit(_CORPUS)
    batch = _CORPUS[:12]
    X_buf, mask_buf = _buffers(TABLE4_CROPPED, len(batch))
    featurizer.transform_into(batch, X_buf, mask_buf)
    warm = featurizer.cache_info()
    first = (X_buf.tobytes(), mask_buf.tobytes())
    featurizer.transform_into(batch, X_buf, mask_buf)
    steady = featurizer.cache_info()
    assert steady["rows_encoded"] == warm["rows_encoded"]
    assert steady["row_memo_size"] == warm["row_memo_size"]
    assert (X_buf.tobytes(), mask_buf.tobytes()) == first


def test_transform_into_overwrites_stale_buffer_contents():
    fitted = _FITTED[TABLE4_CROPPED]
    long_batch = sorted(_CORPUS, key=lambda s: -len(s.primitives))[:4]
    short_batch = sorted(_CORPUS, key=lambda s: len(s.primitives))[:4]
    X_buf, mask_buf = _buffers(TABLE4_CROPPED, 4)
    fitted.transform_into(long_batch, X_buf, mask_buf)
    fitted.transform_into(short_batch, X_buf, mask_buf)
    X_ref, mask_ref = reference_transform(fitted, short_batch)
    assert X_buf.tobytes() == X_ref.tobytes()
    assert mask_buf.tobytes() == mask_ref.tobytes()


def test_transform_into_validates_buffers():
    fitted = _FITTED[TABLE4_CROPPED]
    batch = _CORPUS[:4]
    good_X, good_mask = _buffers(TABLE4_CROPPED, 4)
    with pytest.raises(ValueError, match="buffer"):
        fitted.transform_into(batch, good_X[:2], good_mask)  # too few rows
    bad_X, _ = _buffers(TABLE4_UNCROPPED, 4)
    with pytest.raises(ValueError, match="buffer"):
        fitted.transform_into(batch, bad_X, good_mask)  # wrong geometry
    with pytest.raises(ValueError, match="float32"):
        fitted.transform_into(batch, good_X.astype(np.float64), good_mask)
    unfitted = TLPFeaturizer(TABLE4_CROPPED)
    with pytest.raises(RuntimeError):
        unfitted.transform_into(batch, good_X, good_mask)


def test_cache_clear_resets_counters_and_caches():
    featurizer = TLPFeaturizer(TABLE4_CROPPED).fit(_CORPUS)
    featurizer.transform(_CORPUS[:8])
    first = featurizer.cache_info()
    featurizer.transform(_CORPUS[:8])
    info = featurizer.cache_info()
    assert info["rows_encoded"] > 0 and info["row_memo_size"] > 0
    assert info == first  # the re-query found every row in the memo
    featurizer.cache_clear()
    assert featurizer.cache_info() == {"row_memo_size": 0, "rows_encoded": 0}
    # Still fitted and still correct after the clear.
    X_a, _ = featurizer.transform(_CORPUS[:8])
    X_b, _ = reference_transform(featurizer, _CORPUS[:8])
    assert X_a.tobytes() == X_b.tobytes()


def test_refit_clears_stale_state():
    featurizer = TLPFeaturizer(TABLE4_CROPPED).fit(_CORPUS)
    featurizer.transform(_CORPUS[:8])
    assert featurizer.cache_info()["row_memo_size"] > 0
    featurizer.fit(_CORPUS)
    assert featurizer.cache_info() == {"row_memo_size": 0, "rows_encoded": 0}
