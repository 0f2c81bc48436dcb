"""The public simulated-measurement API (the hardware substitute).

``measure(subgraph, schedule, platform)`` plays the role real hardware
plays in the paper: it prices a schedule's loop nest on one of the 7
simulated platforms and returns a :class:`LatencyRecord`.  The batched
``measure_many`` prices a whole batch at once: its nest features come
from one abstract-interpreter batch pass
(``repro.analysis.batch.BatchProfile`` — one interpreter run per
structural key, the rest as integer columns, no schedule applied and no
nest built; the dataset build prices off the same pass), and every cost
term is vectorized, so labelling ~10k schedules takes well under a
second on one core (``benchmarks/bench_simhw.py``).

Determinism contract: a measurement is a **pure function of
(subgraph, primitive sequence, platform, root seed)**.  No wall clock
anywhere (``repro.analysis.lint`` rule SC104 lints for it); the
only stochastic ingredient is the deterministic micro-architectural
"quirk" multiplier, drawn from named ``repro.utils.rng`` streams keyed
on (ISA family | platform, program-shape signature, root seed) — so
same-ISA platforms share the dominant quirk component and stay closer,
as Table 9 requires, while re-deriving the streams in a fresh process
reproduces every latency bit-for-bit.

``python -m repro.simhw.measure`` runs a self-checking smoke over all 7
platforms (wired into ``make check``); ``--digest`` prints only the
latency digest, which the two-process determinism test compares.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.simhw import cpu_model, gpu_model
from repro.simhw.cache import NestFeatures
from repro.simhw.platform import ALL_PLATFORMS, Platform, get_platform
from repro.tensorir.primitives import Primitive
from repro.tensorir.schedule import Schedule
from repro.tensorir.subgraph import Subgraph
from repro.utils.rng import ROOT_SEED, stream

ScheduleLike = "Schedule | Sequence[Primitive]"


@dataclass(frozen=True)
class LatencyRecord:
    """One simulated measurement, with its term breakdown."""

    subgraph: str
    platform: str
    latency: float           #: seconds
    compute_cycles: float
    memory_cycles: float
    overhead_cycles: float
    parallel_speedup: float
    conflict_factor: float
    quirk: float             #: the deterministic quirk multiplier applied


@lru_cache(maxsize=65536)
def _quirk_unit(stream_name: str, root_seed: int) -> float:
    """One uniform(-1, 1) draw from a named stream, memoized.

    Deterministic by construction (the stream is re-derived from its
    name + root seed), so caching only saves the SHA-256 + generator
    setup on repeated signatures.
    """
    return float(stream(stream_name, root_seed).uniform(-1.0, 1.0))


def quirk_multipliers(
    signatures: Sequence[str], platform: Platform, root_seed: int = ROOT_SEED
) -> np.ndarray:
    """Deterministic per-nest quirk multipliers for one platform.

    ``exp(isa_scale * u_isa + platform_scale * u_plat)`` where the two
    units are drawn from streams keyed on the ISA family and the
    platform respectively (each crossed with the program-shape
    signature).  Same-family platforms share ``u_isa`` — the dominant
    component — so their quirks co-move; cross-family quirks are
    independent.  Signatures are coarse (DESIGN.md §6), so near-top
    candidates of one task share a multiplier and intra-task rankings
    stay clean.
    """
    # Signatures are per program shape, so a batch holds few distinct ones:
    # price each once, in first-seen order, and broadcast.
    distinct = {sig: k for k, sig in enumerate(dict.fromkeys(signatures))}
    priced = np.empty(len(distinct), dtype=np.float32)
    for sig, k in distinct.items():
        u_isa = _quirk_unit(f"simhw.quirk.isa.{platform.isa}.{sig}", root_seed)
        u_plat = _quirk_unit(f"simhw.quirk.platform.{platform.name}.{sig}", root_seed)
        priced[k] = math.exp(
            platform.quirk_isa_scale * u_isa + platform.quirk_platform_scale * u_plat
        )
    return priced[np.fromiter(map(distinct.__getitem__, signatures), np.intp, len(signatures))]


def _coerce_schedule(
    subgraph: Subgraph, schedule: "Schedule | Sequence[Primitive]", platform: Platform
) -> Schedule:
    if isinstance(schedule, Schedule):
        if schedule.subgraph is not subgraph and schedule.subgraph != subgraph:
            raise ValueError(
                f"schedule was built for subgraph {schedule.subgraph.name!r}, "
                f"not {subgraph.name!r}"
            )
        if schedule.target != platform.target:
            raise ValueError(
                f"schedule targets {schedule.target!r} but platform "
                f"{platform.name!r} is {platform.target!r}"
            )
        return schedule
    return Schedule(subgraph, tuple(schedule), target=platform.target)


def extract_features(
    subgraph: Subgraph,
    schedules: Sequence["Schedule | Sequence[Primitive]"],
    platform: Platform,
) -> NestFeatures:
    """The batch's flattened nests for vectorized costing, applying none.

    Every schedule passes ``_coerce_schedule``'s subgraph and target checks
    first; then one batch pass (``repro.analysis.batch.BatchProfile``)
    interprets one schedule per structural key and reads the rest as
    integer columns.  Its ``NestFeatures`` are bit-identical to
    ``NestFeatures.from_nests`` over ``Schedule.apply()`` of each, and an
    invalid schedule raises what its ``apply()`` raises (the first, in
    batch order).
    """
    # Imported at call time: repro.analysis imports repro.simhw.
    from repro.analysis.batch import BatchProfile

    checked = [_coerce_schedule(subgraph, s, platform) for s in schedules]
    return BatchProfile(subgraph, checked, platform.target,
                        lambda: [s.apply() for s in checked]).nest_features()


def _base_latencies(
    features: NestFeatures, platform: Platform
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    model = gpu_model if platform.target == "gpu" else cpu_model
    return model.latency_seconds(features, platform)


def measure_many(
    subgraph: Subgraph,
    schedules: Sequence["Schedule | Sequence[Primitive]"],
    platform: "Platform | str",
    *,
    root_seed: int = ROOT_SEED,
) -> np.ndarray:
    """Simulated latencies (float32 seconds, [N]) for a schedule batch.

    Bit-identical to a loop of :func:`measure`: the single-schedule path
    runs through this exact function with a batch of one, and every cost
    term is elementwise over the batch.  The nest features are
    :func:`extract_features`' (its checks and errors included); an empty
    batch gives an empty array.
    """
    platform = get_platform(platform)
    features = extract_features(subgraph, schedules, platform)
    seconds, _ = _base_latencies(features, platform)
    quirk = quirk_multipliers(features.signatures, platform, root_seed)
    return (seconds * quirk).astype(np.float32)


def measure(
    subgraph: Subgraph,
    schedule: "Schedule | Sequence[Primitive]",
    platform: "Platform | str",
    *,
    root_seed: int = ROOT_SEED,
) -> LatencyRecord:
    """Simulate one measurement, returning the record with its breakdown."""
    platform = get_platform(platform)
    features = extract_features(subgraph, [schedule], platform)
    seconds, terms = _base_latencies(features, platform)
    quirk = quirk_multipliers(features.signatures, platform, root_seed)
    latency = np.float32(seconds[0] * quirk[0])
    return LatencyRecord(
        subgraph=subgraph.name,
        platform=platform.name,
        latency=float(latency),
        compute_cycles=float(terms["compute_cycles"][0]),
        memory_cycles=float(terms["memory_cycles"][0]),
        overhead_cycles=float(terms["overhead_cycles"][0]),
        parallel_speedup=float(terms["parallel_speedup"][0]),
        conflict_factor=float(terms["conflict_factor"][0]),
        quirk=float(quirk[0]),
    )


def labels_from_latencies(latencies: np.ndarray) -> np.ndarray:
    """TLP training labels: ``min_latency / latency`` in (0, 1].

    The paper's relative-performance target (§4.2): the task's best
    schedule scores 1.0, everything else a fraction of it.
    """
    lat = np.asarray(latencies, dtype=np.float32)
    if lat.size == 0:
        return lat.copy()
    if not np.all(lat > 0):
        raise ValueError("latencies must be strictly positive")
    return (lat.min() / lat).astype(np.float32)


# -- smoke ------------------------------------------------------------------


def _smoke(batch: int = 256) -> dict[str, object]:
    """Measure a candidate batch on all 7 platforms; assert determinism.

    Returns the latency digest (SHA-256 over the concatenated float32
    latencies in platform order) plus timing — ``make check`` runs this
    via ``python -m repro.simhw.measure``.
    """
    from repro.tensorir.sketch import SketchConfig, SketchGenerator
    from repro.tensorir.subgraph import matmul_subgraph
    from repro.utils.timer import Timer

    subgraph = matmul_subgraph(128, 128, 128)
    corpus = {
        target: SketchGenerator(SketchConfig(target)).generate_many(
            subgraph, batch, stream(f"simhw.smoke.{target}")
        )
        for target in ("cpu", "gpu")
    }

    digest = hashlib.sha256()
    per_platform: dict[str, float] = {}
    with Timer() as t:
        for platform in ALL_PLATFORMS:
            schedules = corpus[platform.target]
            latencies = measure_many(subgraph, schedules, platform)
            again = measure_many(subgraph, schedules, platform)
            if not np.array_equal(latencies, again):
                raise AssertionError(f"measure_many is not deterministic on {platform.name}")
            labels = labels_from_latencies(latencies)
            if not (labels.max() == np.float32(1.0) and np.all(labels > 0)):
                raise AssertionError(f"labels out of (0, 1] on {platform.name}")
            digest.update(latencies.tobytes())
            per_platform[platform.name] = float(np.median(latencies))
    return {
        "batch": batch,
        "platforms": len(ALL_PLATFORMS),
        "median_latency_s": per_platform,
        "seconds": t.elapsed,
        "digest": digest.hexdigest(),
    }


def main(argv: "list[str] | None" = None) -> int:
    import sys

    args = list(sys.argv[1:] if argv is None else argv)
    stats = _smoke()
    if "--digest" in args:
        print(stats["digest"])
        return 0
    print(
        f"simhw smoke OK: {stats['batch']} schedules x {stats['platforms']} platforms "
        f"in {stats['seconds']:.2f}s, deterministic (digest {str(stats['digest'])[:16]}...)"
    )
    for name, median in stats["median_latency_s"].items():  # type: ignore[union-attr]
        print(f"  {name:>14}: median {median * 1e3:8.3f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "LatencyRecord",
    "extract_features",
    "labels_from_latencies",
    "measure",
    "measure_many",
    "quirk_multipliers",
]
