"""The per-candidate composition the batch pass replaced, kept as its oracle.

One ``absint.profile`` run per candidate, then that profile's two views —
``StaticProfile.features()`` for the static row and ``to_nest()`` for the
concrete nest — then ``NestFeatures.from_nests`` over the nests, and
``TLPFeaturizer.transform`` for the TLP rows.  ``repro.analysis.batch.BatchProfile``
and ``TLPFeaturizer.transform_into`` must reproduce every byte of it, and
raise exactly where its loop raises.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import absint
from repro.simhw.cache import NestFeatures

#: Every array field of ``NestFeatures``.
NEST_FIELDS = ("depth", "extents", "kinds", "is_reduction", "tags", "padded_points",
               "domain_points", "flops_per_point", "unroll_step", "cache_write",
               "compute_at", "inlined", "rfactored")


def reference_profiles(subgraph, sequences, target):
    """(static plane, NestFeatures) one candidate at a time."""
    profiles = [absint.profile(subgraph, seq, target) for seq in sequences]
    static = np.zeros((len(profiles), len(absint.STATIC_FEATURE_NAMES)), dtype=np.float32)
    for i, prof in enumerate(profiles):
        static[i] = prof.features()
    return static, NestFeatures.from_nests(subgraph, [p.to_nest() for p in profiles])


def first_failure(subgraph, sequences, target):
    """``(index, error)`` of the first candidate whose profile raises, or None."""
    for i, seq in enumerate(sequences):
        try:
            absint.profile(subgraph, seq, target)
        except Exception as err:  # the oracle reports whatever its loop raises
            return i, err
    return None


def assert_same_nest_features(got: NestFeatures, want: NestFeatures) -> None:
    assert got.n == want.n
    for field in NEST_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert got.signatures == want.signatures
