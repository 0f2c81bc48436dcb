"""repro.tensorir.sampler — every generated sequence is verifier-clean."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis import InvalidScheduleError, has_errors, verify_schedule
from repro.tensorir import (
    PrimitiveKind,
    Schedule,
    SketchConfig,
    SketchGenerator,
    sample_subgraph_pool,
)
from repro.tensorir import primitives as P
from repro.utils.rng import stream


@pytest.mark.parametrize("target", ["cpu", "gpu"])
def test_sampler_output_is_always_verifier_clean(target):
    """The acceptance bar: 100% of sampler-generated sequences verify clean."""
    gen = SketchGenerator(SketchConfig(target=target))
    for sg in sample_subgraph_pool():
        rng = stream(f"test.sampler.{sg.name}.{target}")
        for _ in range(25):
            schedule = gen.generate(sg, rng)
            assert schedule.target == target
            diags = verify_schedule(schedule)
            assert not has_errors(diags), (sg.name, [str(d) for d in diags])
            nest = schedule.apply()
            if not nest.inlined:
                assert nest.depth >= len(sg.axes)


def test_sampling_is_deterministic_under_a_seeded_stream():
    sg = sample_subgraph_pool()[0]
    gen = SketchGenerator(SketchConfig())
    a = gen.generate(sg, stream("test.det"))
    b = gen.generate(sg, stream("test.det"))
    assert a.primitives == b.primitives


def test_sampler_exercises_the_primitive_vocabulary():
    """Across many samples the sampler should emit most primitive kinds."""
    seen: set[PrimitiveKind] = set()
    for target in ("cpu", "gpu"):
        gen = SketchGenerator(SketchConfig(target=target))
        for sg in sample_subgraph_pool():
            rng = stream(f"test.vocab.{sg.name}.{target}")
            for _ in range(30):
                for prim in gen.generate(sg, rng).primitives:
                    seen.add(PrimitiveKind(prim.kind))
    assert {
        PrimitiveKind.SP,
        PrimitiveKind.RE,
        PrimitiveKind.FU,
        PrimitiveKind.AN,
        PrimitiveKind.PR,
        PrimitiveKind.FSP,
        PrimitiveKind.CHW,
        PrimitiveKind.RF,
        PrimitiveKind.CI,
        PrimitiveKind.CA,
    } <= seen


def test_gpu_schedules_bind_threads():
    sg = sample_subgraph_pool()[0]
    gen = SketchGenerator(SketchConfig(target="gpu"))
    schedule = gen.generate(sg, stream("test.gpu.bind"))
    binds = [p for p in schedule.primitives if p.kind is PrimitiveKind.AN and p.attr.startswith("bind.")]
    assert binds, "GPU sketches must bind at least one thread axis"


def test_generate_is_fail_closed(monkeypatch, matmul):
    """If the sampler ever emits an invalid sequence, generate() raises
    instead of letting the sequence poison downstream consumers."""
    from repro.tensorir import sampler as sampler_mod

    def broken_sample(self, subgraph, rng):
        return Schedule(subgraph, (P.rfactor(subgraph.spatial_axes[0].name),))

    monkeypatch.setattr(sampler_mod.ScheduleSampler, "sample", broken_sample)
    gen = SketchGenerator(SketchConfig())
    with pytest.raises(InvalidScheduleError):
        gen.generate(matmul, stream("test.failclosed"))


def test_bad_target_rejected():
    with pytest.raises(ValueError):
        SketchConfig(target="tpu")


@pytest.mark.parametrize("field, value", [
    ("max_innermost_factor", 0),
    ("max_innermost_factor", 2.5),
    ("unroll_steps", ()),
    ("unroll_steps", (-1,)),
    ("unroll_steps", (16, 2.0)),
    ("padding_prob", 7.0),
    ("padding_prob", math.nan),
    ("cache_write_prob", -0.1),
    ("rfactor_prob", 1.5),
    ("inline_prob", math.nan),
])
def test_bad_config_rejected_at_construction(field, value):
    """Each bad field fails when the config is built, by name — not at the
    first sample with numpy's bare ``high <= 0``, and not silently."""
    with pytest.raises(ValueError, match=f"SketchConfig.{field}"):
        SketchConfig(**{field: value})


def test_generate_many_rejects_a_negative_count(matmul):
    gen = SketchGenerator(SketchConfig())
    with pytest.raises(ValueError, match="n >= 0"):
        gen.generate_many(matmul, -3, stream("test.count"))
    assert gen.generate_many(matmul, 0, stream("test.count")) == []
