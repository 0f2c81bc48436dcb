"""Multi-head self-attention with its residual join: masking semantics
+ gradcheck."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import MultiHeadSelfAttention, Tensor, assert_gradients_match
from repro.nn.functional import PackedRows
from repro.utils.rng import stream

_RNG = stream("test.nn.attention")


def _x(shape, scale=0.5):
    return Tensor((_RNG.standard_normal(shape) * scale).astype(np.float32), requires_grad=True)


def _packed(x: Tensor, rows: PackedRows) -> Tensor:
    """The kept rows of a dense ``[n, L, D]`` tensor, packed."""
    width = x.shape[-1]
    return x.reshape(-1, width)[rows.index].reshape(rows.lead + (width,))


def _over_mask(att, x, mask):
    """The packed layer over the kept rows of a dense ``[n, L, D]`` input,
    scattered back to ``[n, L, D]`` (zeros on skipped rows)."""
    rows = PackedRows(mask)
    out = att(_packed(Tensor(x), rows), rows).data
    dense = np.zeros(mask.shape + (out.shape[-1],), dtype=np.float32)
    dense.reshape(-1, out.shape[-1])[rows.index] = out.reshape(-1, out.shape[-1])
    return dense


def test_output_shape_and_head_divisibility():
    att = MultiHeadSelfAttention(8, 4, rng=stream("t.att.shape"))
    rows = PackedRows(np.ones((3, 6), dtype=np.float32))
    assert att(_x((18, 8)), rows).shape == (18, 8)
    packed = PackedRows((np.arange(6) < np.array([[6], [2], [3]])).astype(np.float32))
    assert att(_x(packed.lead + (8,)), packed).shape == (11, 8)
    with pytest.raises(ValueError):
        MultiHeadSelfAttention(8, 3)


def test_masked_positions_receive_zero_attention_weight():
    """Real rows attend only to real rows: the output on them equals the
    layer over the unpadded sequences, and padded features are never
    read (nor computed: their rows stay zero)."""
    att = MultiHeadSelfAttention(8, 2, rng=stream("t.att.mask"))
    x = _RNG.standard_normal((2, 5, 8)).astype(np.float32)
    mask = np.ones((2, 5), dtype=np.float32)
    mask[:, 3:] = 0.0
    base = _over_mask(att, x, mask)
    alone = _over_mask(att, x[:, :3], np.ones((2, 3), dtype=np.float32))
    assert np.allclose(base[:, :3, :], alone, atol=1e-5)
    assert not base[:, 3:, :].any()
    perturbed = x.copy()
    perturbed[:, 3:, :] += _RNG.standard_normal((2, 2, 8)).astype(np.float32) * 10.0
    assert np.array_equal(_over_mask(att, perturbed, mask), base)


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
    rows = PackedRows(mask)
    tensors = [x] + list(att.parameters())
    assert_gradients_match(lambda: (att(_packed(x, rows), rows) ** 2).mean(), tensors)
