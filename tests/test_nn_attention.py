"""Multi-head self-attention: masking semantics + gradcheck."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import MultiHeadSelfAttention, Tensor, as_tensor, assert_gradients_match
from repro.nn.functional import PackedRows
from repro.nn.tensor import gather_rows, scatter_rows
from repro.utils.rng import stream

_RNG = stream("test.nn.attention")


def _x(shape, scale=0.5):
    return Tensor((_RNG.standard_normal(shape) * scale).astype(np.float32), requires_grad=True)


def _over_mask(att, x, mask):
    """The packed layer over the kept rows of a dense ``[n, L, D]`` input,
    scattered back to ``[n, L, D]`` (zeros on skipped rows)."""
    rows = PackedRows(mask)
    n, length = mask.shape
    out = att(gather_rows(as_tensor(x), rows.index, rows.blocks), rows)
    return scatter_rows(out, rows.index, (n, length))


def test_output_shape_and_head_divisibility():
    att = MultiHeadSelfAttention(8, 4, rng=stream("t.att.shape"))
    rows = PackedRows(np.ones((3, 6), dtype=np.float32))
    assert att(_x((3, 6, 8)), rows).shape == (3, 6, 8)
    packed = PackedRows((np.arange(6) < np.array([[6], [2], [3]])).astype(np.float32))
    assert att(_x(packed.blocks + (8,)), packed).shape == (2, 6, 8)
    with pytest.raises(ValueError):
        MultiHeadSelfAttention(8, 3)


def test_masked_positions_receive_zero_attention_weight():
    """Real rows attend only to real rows: the output on them equals the
    layer over the unpadded sequences, and padded features are never
    read."""
    att = MultiHeadSelfAttention(8, 2, rng=stream("t.att.mask"))
    x = _RNG.standard_normal((2, 5, 8)).astype(np.float32)
    mask = np.ones((2, 5), dtype=np.float32)
    mask[:, 3:] = 0.0
    base = _over_mask(att, x, mask).data
    alone = _over_mask(att, x[:, :3], np.ones((2, 3), dtype=np.float32)).data
    assert np.allclose(base[:, :3, :], alone, atol=1e-5)
    assert not base[:, 3:, :].any()
    perturbed = x.copy()
    perturbed[:, 3:, :] += _RNG.standard_normal((2, 2, 8)).astype(np.float32) * 10.0
    assert np.array_equal(_over_mask(att, perturbed, mask).data, base)


def test_construction_is_reproducible_from_stream():
    a = MultiHeadSelfAttention(8, 2, rng=stream("t.att.repro"))
    b = MultiHeadSelfAttention(8, 2, rng=stream("t.att.repro"))
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb and np.array_equal(pa.data, pb.data)


@pytest.mark.gradcheck
def test_gradcheck_attention_with_mask():
    att = MultiHeadSelfAttention(4, 2, rng=stream("t.att.gc"))
    x = _x((2, 3, 4))
    mask = np.ones((2, 3), dtype=np.float32)
    mask[1, 2] = 0.0
    tensors = [x] + list(att.parameters())
    assert_gradients_match(lambda: (_over_mask(att, x, mask) ** 2).mean(), tensors)
