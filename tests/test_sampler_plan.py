"""Sketch plans and replayed draws against the per-candidate sampler they
replaced.

``ScheduleSampler`` fixes each subgraph's structure once (``SketchPlan``)
and only draws per candidate; ``tests/sampler_reference.py`` rebuilds the
structure for every candidate, as the sampler used to.  Here the sampler
draws through a ``repro.utils.rng.Replay``, as ``generate_many`` runs it,
while the oracle draws from the raw ``np.random.Generator``: both must
emit the same sequences and leave the Generator in the same state, for
any subgraph and any ``SketchConfig`` — every store, digest and pick
downstream rests on that stream.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.tensorir import (
    Axis,
    PrimitiveKind,
    ScheduleSampler,
    SketchConfig,
    Subgraph,
    matmul_subgraph,
)
from repro.tensorir.networks import NETWORK_POOLS
from repro.tensorir.sampler import WORDS_PER_CANDIDATE
from repro.tensorir.sketch import PROBABILITIES, TARGETS
from repro.utils.rng import Replay, stream
from sampler_reference import ReferenceSampler

EXTENTS = (1, 2, 3, 7, 8, 31, 32, 33, 64, 96, 1000, 2048, 200704)
POOL_SUBGRAPHS = tuple(
    dict.fromkeys(sg for pool in NETWORK_POOLS.values() for sg in pool.subgraphs)
)

#: SHA-256 of every pool subgraph's 64 default-config samples on cpu and
#: gpu, with the Generator state after each batch (``_stream_digest``).
#: Recorded on the raw Generator before sketch plans existed, and now
#: computed through the replay, so it pins the replay to numpy's stream:
#: PCG64 ``random()``, the 32-bit Lemire method behind ``integers()``
#: over buffered half-words, and ``integers(0, 1)`` drawing nothing.  A
#: numpy release that changes any of those fails this test by name (and
#: ``tests/test_rng.py``'s twin-Generator property), ahead of the store and
#: semantics digests built on the same stream.
STREAM_DIGEST = "8b08c058a87d75849a8212c04c5b15a8b72c4313a40f39d10638515619d2854a"


def _sequence(schedule) -> list[tuple]:
    return [(PrimitiveKind(p.kind).value, p.axes, p.ints, p.attr) for p in schedule.primitives]


def _assert_same_stream(config: SketchConfig, batches, seed: int) -> None:
    """Feed ``(subgraph, n)`` batches, in turn, to one sampler of each
    kind, each on its own Generator in the same state: the oracle draws
    from it directly, the sampler through one replay per batch."""
    ref_rng, new_rng = stream("test.sampler_plan", seed), stream("test.sampler_plan", seed)
    ref, new = ReferenceSampler(config), ScheduleSampler(config)
    for sg, n in batches:
        want = [ref.sample(sg, ref_rng) for _ in range(n)]
        with Replay(new_rng, WORDS_PER_CANDIDATE * n) as draws:
            got = [new.sample(sg, draws) for _ in range(n)]
        assert [_sequence(s) for s in got] == [_sequence(s) for s in want], sg
        assert all(s.subgraph == sg and s.target == config.target for s in got)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state, sg


@st.composite
def subgraphs(draw) -> Subgraph:
    """0–6 axes whose extents come from a small per-example pool, so equal
    spatial extents (the FSP path) and reductions sharing one are common."""
    n = draw(st.integers(0, 6))
    pool = draw(st.lists(st.sampled_from(EXTENTS), min_size=1, max_size=3, unique=True))
    axes = tuple(
        Axis(f"a{i}", draw(st.sampled_from(pool)), draw(st.booleans())) for i in range(n)
    )
    return Subgraph("drawn", axes)


@st.composite
def configs(draw) -> SketchConfig:
    defaults = SketchConfig()
    return SketchConfig(
        target=draw(st.sampled_from(TARGETS)),
        max_innermost_factor=draw(st.integers(1, 64)),
        unroll_steps=tuple(draw(st.lists(st.sampled_from((0, 16, 64, 512, 1024)),
                                         min_size=1, max_size=4))),
        **{name: draw(st.sampled_from((0.0, getattr(defaults, name), 1.0)))
           for name in PROBABILITIES},
    )


def _subgraph(*axes: tuple[int, bool]) -> Subgraph:
    return Subgraph("example", tuple(Axis(f"a{i}", e, r) for i, (e, r) in enumerate(axes)))


@settings(max_examples=150, deadline=None)
@given(sg=subgraphs(), config=configs(), n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
@example(sg=_subgraph((64, False), (64, False), (64, True)), config=SketchConfig(), n=64, seed=0)
@example(sg=_subgraph((96, True), (1, True)), config=SketchConfig("gpu"), n=64, seed=1)
@example(sg=_subgraph((33, False), (7, False), (33, False)),
         config=SketchConfig(cache_write_prob=1.0), n=64, seed=2)
@example(sg=_subgraph(), config=SketchConfig(inline_prob=0.0), n=8, seed=3)
def test_plans_replay_the_reference_stream(sg, config, n, seed):
    _assert_same_stream(config, [(sg, n)], seed)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("pool", sorted(NETWORK_POOLS))
def test_plans_replay_the_reference_stream_on_every_pool(pool, target):
    batches = [(sg, 64) for sg in NETWORK_POOLS[pool].subgraphs]
    _assert_same_stream(SketchConfig(target), batches, seed=0)


def test_plans_are_keyed_by_content_not_name():
    """Two subgraphs with one name and the same axis names but different
    extents, alternated on one sampler: each must get its own plan."""
    a = matmul_subgraph(128, 128, 128)
    b = Subgraph(a.name, tuple(Axis(x.name, e, x.is_reduction)
                               for x, e in zip(a.axes, (96, 7, 2048))))
    for target in TARGETS:
        _assert_same_stream(SketchConfig(target), [(a, 3), (b, 3)] * 4 + [(a, 1), (b, 1)] * 8,
                            seed=7)


def _stream_digest(sampler_cls) -> str:
    digest = hashlib.sha256()
    for target in TARGETS:
        sampler = sampler_cls(SketchConfig(target))
        for i, sg in enumerate(POOL_SUBGRAPHS):
            rng = stream(f"test.sampler_plan.{i}")
            with Replay(rng, WORDS_PER_CANDIDATE * 64) as draws:
                for _ in range(64):
                    digest.update(repr(_sequence(sampler.sample(sg, draws))).encode())
            digest.update(repr(rng.bit_generator.state).encode())
    return digest.hexdigest()


def test_sampler_stream_digest_is_pinned():
    assert _stream_digest(ScheduleSampler) == STREAM_DIGEST
