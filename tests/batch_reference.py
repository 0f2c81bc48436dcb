"""The per-candidate composition the batch pass replaced, kept as its oracle.

One ``absint.profile`` run per candidate, then that profile's two views —
``StaticProfile.features()`` for the static row and ``to_nest()`` for the
concrete nest — then ``NestFeatures.from_nests`` over the nests, and
``repro.core.reference_transform`` (the naive per-primitive encoder) for
the TLP rows.  ``repro.analysis.batch.BatchProfile``
and ``TLPFeaturizer.transform_into`` must reproduce every byte of it, and
raise exactly where its loop raises.  The pricing that runs on the pass —
``simhw.measure_many`` and the draft scores — is held to
``Schedule.apply`` + ``NestFeatures.from_nests`` here too, and
``CandidateGroups``' partition to the structural key it was first
computed by (:func:`reference_groups`).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import absint
from repro.simhw import cpu_model, gpu_model
from repro.simhw.cache import NestFeatures
from repro.simhw.measure import quirk_multipliers
from repro.simhw.platform import get_platform
from repro.tensorir.primitives import PrimitiveKind
from repro.tensorir.schedule import Schedule
from repro.utils.rng import ROOT_SEED

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


def reference_groups(sequences) -> list[int]:
    """Each sequence's group, numbered by first appearance, under the key
    ``CandidateGroups`` was first computed by: every primitive's kind (a
    raw kind string equals its enum member), axes, attr and number of
    ints, and each FSP's source step with its type, zipped field by field."""
    index: dict[tuple, int] = {}
    group_of = []
    for seq in sequences:
        prims = absint._primitives_of(seq)
        fields = ((p.kind, p.axes, p.attr, p.ints) for p in prims)
        kinds, axes, attrs, ints = zip(*fields) if prims else ((),) * 4
        sources = tuple((v[1], type(v[1])) for k, v in zip(kinds, ints)
                        if k == PrimitiveKind.FSP and len(v) > 1)
        key = (kinds, axes, attrs, tuple(map(len, ints)), sources)
        group_of.append(index.setdefault(key, len(index)))
    return group_of


def _priced(subgraph, sequences, platform):
    """``(features, seconds, terms)`` of the applied nests on ``platform``."""
    nests = [(s if isinstance(s, Schedule) else Schedule(subgraph, tuple(s), platform.target))
             .apply() for s in sequences]
    features = NestFeatures.from_nests(subgraph, nests)
    model = gpu_model if platform.target == "gpu" else cpu_model
    return (features, *model.latency_seconds(features, platform))


def reference_latencies(subgraph, schedules, platform, root_seed=ROOT_SEED):
    """``(latencies, terms, quirk)`` of ``simhw.measure_many`` as one
    ``Schedule.apply`` per schedule composed it."""
    platform = get_platform(platform)
    features, seconds, terms = _priced(subgraph, schedules, platform)
    quirk = quirk_multipliers(features.signatures, platform, root_seed)
    return (seconds * quirk).astype(np.float32), terms, quirk


def reference_draft_scores(subgraph, sequences, target):
    """``absint.draft_scores`` over applied nests."""
    _, seconds, _ = _priced(subgraph, sequences, absint.reference_platform(target))
    floor = np.maximum(seconds, np.float32(1e-30))
    return (floor.min() / floor).astype(np.float32)
