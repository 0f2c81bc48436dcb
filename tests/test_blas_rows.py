"""The GEMM row rule the packed and distinct-row forwards rest on.

``repro.nn.functional`` runs each forward linear as one flat GEMM over
only the rows it needs: the kept rows of a chunk (``PackedRows``), or one
row per distinct feature row of a whole ``predict`` batch
(``DistinctRows``), gathered back afterwards.  Those results are the
dense per-sample GEMM's bytes only if, for a weight shape, a row's
``x @ W`` bytes depend neither on how many rows (at least 2) the call
has nor on where the row sits in it.  That holds on the OpenBLAS
SkylakeX and Sandybridge kernels and fails on Haswell (ROADMAP item 2),
so a failure here names the kernel this process runs on.

The shapes are every trunk weight of the model configs the tests,
benchmarks and perfbench build; the score head's single column is left
out, since ``predict`` runs it once over the whole batch, at the row
count ``forward`` uses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TLPModel, TLPModelConfig
from repro.utils.blas import openblas_core
from repro.utils.rng import stream

#: (emb, hidden, heads) of every model config built in tests/,
#: benchmarks/ and perfbench/ (the default is the Fig. 7 one perfbench
#: serves and trains).
_MODEL_CONFIGS = (
    (5, 8, 2), (6, 8, 2), (22, 8, 2), (7, 12, 4), (22, 16, 2), (22, 32, 2),
    (7, 32, 2), (22, 48, 4), (22, 64, 4), (22, 256, 8),
)


def _trunk_weight_shapes() -> list[tuple[int, int]]:
    shapes = set()
    for emb, hidden, heads in _MODEL_CONFIGS:
        model = TLPModel(TLPModelConfig(emb=emb, hidden=hidden, n_heads=heads))
        shapes.update(p.data.shape for name, p in model.named_parameters()
                      if name.endswith("weight") and p.data.shape[1] > 1)
    return sorted(shapes)


_ROWS = 300
_COUNTS = (2, 3, 5, 8, 17, 64, 129, 299)


@pytest.mark.parametrize("shape", _trunk_weight_shapes(), ids=lambda s: f"{s[0]}x{s[1]}")
def test_gemm_row_bytes_do_not_depend_on_the_call(shape):
    """A row's ``x @ W`` bytes are the same in a call of any row count
    from 2 to 300, at any offset, and gathered among other rows."""
    k, e = shape
    rng = stream(f"test.blas_rows.{k}x{e}")
    x = rng.standard_normal((_ROWS, k)).astype(np.float32)
    x[rng.random(x.shape) < 0.3] = 0.0  # ReLU outputs feed most of the GEMMs
    weight = rng.standard_normal((k, e)).astype(np.float32)
    full = x @ weight
    for m in _COUNTS:
        for start in sorted({0, 1, 7, _ROWS - m}):
            rows = slice(start, start + m)
            assert (x[rows] @ weight).tobytes() == full[rows].tobytes(), (
                f"OpenBLAS kernel {openblas_core()}: at weight shape {k}x{e}, rows "
                f"{start}..{start + m - 1} of a {m}-row GEMM differ from the same rows "
                f"of a {_ROWS}-row GEMM; the packed and distinct-row forwards "
                "(repro.nn.functional) do not give the dense bytes on this kernel")
        picked = rng.permutation(_ROWS)[:m]
        assert (x[picked] @ weight).tobytes() == full[picked].tobytes(), (
            f"OpenBLAS kernel {openblas_core()}: at weight shape {k}x{e}, {m} gathered "
            f"rows differ from the same rows of a {_ROWS}-row GEMM")


def test_openblas_core_is_named():
    """The kernel name the failures above quote: non-empty, and
    ``unknown`` only when numpy ships no scipy-openblas library."""
    core = openblas_core()
    assert isinstance(core, str) and core
    assert openblas_core() is core  # read once per process
