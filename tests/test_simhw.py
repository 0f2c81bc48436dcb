"""repro.simhw — the deterministic simulated-hardware latency substrate.

The load-bearing claims, in paper order:

* **Schedule sensitivity** (DESIGN.md §2): good tiling, an innermost
  vectorized loop, an outer parallel loop, and moderate unrolling lower
  latency; power-of-two middle extents (the W301 smell) and
  over-unrolling raise it.  A cost model trained on these labels has
  something real to learn from the primitive sequence alone.
* **Table 9 domain-shift structure**: rankings rank-correlate strongly
  (Spearman > 0.7) within one ISA family and visibly less across
  families, with per-platform latency scales that differ.
* **Determinism**: a measurement is a pure function of (subgraph,
  primitive sequence, platform, root seed) — bit-identical after the
  quirk-stream caches are dropped and re-derived, and across separate
  processes (the digest subprocess test).

The 10k-schedule throughput budget is a ``bench_check`` floor
(``benchmarks/bench_simhw.py::test_perf_floors``, ``make bench-check``);
its tier-1 half (finite, positive, bit-reproducible labels for a 10k
batch) is ``bench_simhw.py::test_perf_claims``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import spearmanr

from repro.simhw import (
    ALL_PLATFORMS,
    CPU_PLATFORMS,
    GPU_PLATFORMS,
    ISA_FAMILIES,
    PLATFORMS,
    Platform,
    get_platform,
    labels_from_latencies,
    measure,
    measure_labels,
    measure_many,
)
from batch_reference import assert_same_nest_features, reference_latencies
from corruptions import CORRUPTIONS
from repro.simhw.cache import NestFeatures, conflict_counts
from repro.simhw.gpu_model import occupancy_efficiency
from repro.simhw.measure import _quirk_unit, extract_features
from repro.tensorir import Schedule, SketchConfig, SketchGenerator, matmul_subgraph
from repro.tensorir import primitives as P
from repro.tensorir.networks import NETWORK_POOLS
from repro.utils.rng import stream

REPO_ROOT = Path(__file__).resolve().parent.parent

_SUB = matmul_subgraph(128, 128, 128)
_INTEL = PLATFORMS["platinum-8272"]
_T4 = PLATFORMS["t4"]


def _cpu_latency(*prims, platform=_INTEL, subgraph=_SUB):
    return measure(subgraph, Schedule(subgraph, prims, target="cpu"), platform).latency


def _gpu_latency(*prims, platform=_T4, subgraph=_SUB):
    return measure(subgraph, Schedule(subgraph, prims, target="gpu"), platform).latency


@pytest.fixture(scope="module")
def cpu_corpus():
    gen = SketchGenerator(SketchConfig("cpu"))
    return gen.generate_many(_SUB, 400, stream("test.simhw.cpu_corpus"))


@pytest.fixture(scope="module")
def gpu_corpus():
    gen = SketchGenerator(SketchConfig("gpu"))
    return gen.generate_many(_SUB, 400, stream("test.simhw.gpu_corpus"))


# -- platforms ---------------------------------------------------------------


def test_registry_has_the_seven_tenset_platforms():
    assert len(ALL_PLATFORMS) == 7
    assert len(CPU_PLATFORMS) == 5 and len(GPU_PLATFORMS) == 2
    assert set(ISA_FAMILIES) == {"x86", "aarch64", "cuda"}
    assert len(ISA_FAMILIES["x86"]) == 4
    assert get_platform("t4") is _T4
    assert get_platform(_INTEL) is _INTEL
    with pytest.raises(KeyError, match="unknown platform"):
        get_platform("a100")


def test_platform_validation():
    with pytest.raises(ValueError, match="target"):
        Platform(name="x", isa="x86", vendor="intel", target="tpu",
                 freq_ghz=1.0, cores=1, vector_width=1, flops_per_cycle=1.0,
                 cache_kb=(32.0,), cache_bw=(8.0,), mem_parallel_scale=1.0,
                 parallel_task_cycles=0.0, conflict_penalty=0.0, unroll_cap=16,
                 unroll_gain=0.0, icache_penalty=0.0,
                 quirk_isa_scale=0.0, quirk_platform_scale=0.0)
    with pytest.raises(ValueError, match="lengths differ"):
        Platform(name="x", isa="x86", vendor="intel", target="cpu",
                 freq_ghz=1.0, cores=1, vector_width=1, flops_per_cycle=1.0,
                 cache_kb=(32.0, 64.0), cache_bw=(8.0,), mem_parallel_scale=1.0,
                 parallel_task_cycles=0.0, conflict_penalty=0.0, unroll_cap=16,
                 unroll_gain=0.0, icache_penalty=0.0,
                 quirk_isa_scale=0.0, quirk_platform_scale=0.0)


def test_target_mismatch_is_rejected():
    gpu_schedule = Schedule(_SUB, (), target="gpu")
    with pytest.raises(ValueError, match="targets"):
        measure(_SUB, gpu_schedule, _INTEL)
    with pytest.raises(ValueError, match="targets"):
        measure_many(_SUB, [Schedule(_SUB, (), target="cpu")], "k80")


# -- schedule sensitivity (the paper-shaped properties) ----------------------


def test_vectorizing_the_innermost_loop_lowers_latency():
    base = _cpu_latency()
    vec = _cpu_latency(P.split("j", 128, (16,)), P.annotate("j.1", "vectorize"))
    assert vec < base


def test_parallelizing_the_outer_loop_lowers_latency():
    base = _cpu_latency()
    par = _cpu_latency(P.annotate("i", "parallel"))
    assert par < base
    # ... and scales with the core count: the 26-core part gains more
    # than the 4-core laptop chip from the identical schedule.
    laptop = PLATFORMS["i7-10510u"]
    gain_server = base / par
    gain_laptop = _cpu_latency(platform=laptop) / _cpu_latency(
        P.annotate("i", "parallel"), platform=laptop
    )
    assert gain_server > gain_laptop


def test_cache_tiling_lowers_latency():
    base = _cpu_latency()
    tiled = _cpu_latency(
        P.split("i", 128, (8,)), P.split("j", 128, (8,)),
        P.reorder(("i.0", "j.0", "i.1", "j.1", "k")),
    )
    assert tiled < base


def test_moderate_unroll_helps_and_over_unroll_hurts():
    good = _cpu_latency(P.pragma("i", "auto_unroll_max_step", 64))
    over = _cpu_latency(P.pragma("i", "auto_unroll_max_step", 4096))
    assert good < _cpu_latency()
    assert over > good


def test_pow2_middle_extent_conflict_raises_latency():
    # 8320 factors as 80 x 104 (conflict-free) or 64 x 130 (one pow2 >= 64
    # middle extent — exactly what the verifier's W301 flags).  Same
    # iteration count, same padding; only the conflict term differs.
    sub = matmul_subgraph(128, 8320, 128)
    clean = measure(sub, Schedule(sub, (P.split("j", 8320, (104,)),)), _INTEL)
    confl = measure(sub, Schedule(sub, (P.split("j", 8320, (130,)),)), _INTEL)
    assert clean.conflict_factor == pytest.approx(1.0)
    assert confl.conflict_factor > 1.0
    assert confl.latency > clean.latency


def test_conflict_counts_exempt_outermost_and_innermost():
    nests = [
        Schedule(_SUB, ()).apply(),                          # i=128, j=128, k=128
        Schedule(_SUB, (P.split("j", 128, (2,)),)).apply(),  # middle j.0 = 64
    ]
    counts = conflict_counts(NestFeatures.from_nests(_SUB, nests))
    # Nest 0: only the middle loop j=128 counts (i outermost, k innermost).
    assert counts.tolist() == [1.0, 1.0]


def test_gpu_thread_binding_lowers_latency():
    unbound = _gpu_latency()
    bound = _gpu_latency(
        P.split("i", 128, (64,)),
        P.annotate("i.0", "bind.blockIdx.x"),
        P.annotate("i.1", "bind.threadIdx.x"),
    )
    more_blocks = _gpu_latency(
        P.split("i", 128, (64,)),
        P.annotate("i.0", "bind.blockIdx.x"),
        P.annotate("i.1", "bind.threadIdx.x"),
        P.split("j", 128, (1,)),
        P.annotate("j.0", "bind.blockIdx.y"),
    )
    assert bound < unbound
    assert more_blocks < bound  # filling more SMs raises occupancy


def test_gpu_warp_alignment_and_occupancy_saturation():
    grid = np.array([40.0], dtype=np.float32)
    full, _ = occupancy_efficiency(grid, np.array([64.0], np.float32), _T4)
    ragged, _ = occupancy_efficiency(grid, np.array([33.0], np.float32), _T4)
    assert full[0] == pytest.approx(1.0)
    assert ragged[0] == pytest.approx(33.0 / 64.0)
    # occupancy efficiency saturates: doubling an already-full device
    # changes nothing.
    _, occ_full = occupancy_efficiency(
        np.array([1e6], np.float32), np.array([1024.0], np.float32), _T4
    )
    assert occ_full[0] == pytest.approx(1.0)


# -- Table 9 structure -------------------------------------------------------


def test_latency_scales_differ_across_platforms(cpu_corpus):
    medians = {
        p.name: float(np.median(measure_many(_SUB, cpu_corpus, p)))
        for p in CPU_PLATFORMS
    }
    assert len({round(m, 9) for m in medians.values()}) == len(medians)


def test_rankings_correlate_within_isa_family(cpu_corpus, gpu_corpus):
    lat = {p.name: measure_many(_SUB, cpu_corpus, p) for p in CPU_PLATFORMS}
    for i, a in enumerate(CPU_PLATFORMS):
        for b in CPU_PLATFORMS[i + 1:]:
            if a.isa == b.isa:
                r = spearmanr(lat[a.name], lat[b.name]).statistic
                assert r > 0.7, f"{a.name} vs {b.name}: spearman {r:.3f}"
    glat = {p.name: measure_many(_SUB, gpu_corpus, p) for p in GPU_PLATFORMS}
    assert spearmanr(glat["k80"], glat["t4"]).statistic > 0.7


def test_rankings_drift_across_isa_families(cpu_corpus):
    lat = {p.name: measure_many(_SUB, cpu_corpus, p) for p in CPU_PLATFORMS}
    within, across = [], []
    for i, a in enumerate(CPU_PLATFORMS):
        for b in CPU_PLATFORMS[i + 1:]:
            r = spearmanr(lat[a.name], lat[b.name]).statistic
            (within if a.isa == b.isa else across).append(r)
    # Every cross-family pair correlates less than every within-family
    # pair — the domain shift MTL-TLP exploits is real and directional.
    assert max(across) < min(within)


# -- determinism -------------------------------------------------------------


def test_measure_many_matches_a_loop_of_measure(cpu_corpus):
    batch = measure_many(_SUB, cpu_corpus[:64], _INTEL)
    singles = np.array(
        [measure(_SUB, s, _INTEL).latency for s in cpu_corpus[:64]], dtype=np.float32
    )
    assert np.array_equal(batch, singles)


@pytest.mark.parametrize("platform", ALL_PLATFORMS, ids=[p.name for p in ALL_PLATFORMS])
def test_measure_prices_the_applied_nests_bit_for_bit(platform):
    """``measure_many`` and ``measure`` price through the batch pass, with
    no schedule applied: latencies, cost terms and nest features are the
    bytes of ``Schedule.apply`` + ``NestFeatures.from_nests``, schedules
    and bare primitive tuples alike, padded splits included."""
    gen = SketchGenerator(SketchConfig(platform.target, padding_prob=0.5))
    padded = 0
    for sg in (matmul_subgraph(100, 96, 60), NETWORK_POOLS["resnet18"].subgraphs[2]):
        schedules = gen.generate_many(sg, 40, stream(f"test.simhw.batch.{sg.name}"))
        mixed = schedules[:20] + [s.primitives for s in schedules[20:]]
        want, terms, quirk = reference_latencies(sg, mixed, platform, root_seed=3)
        got = measure_many(sg, mixed, platform, root_seed=3)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        features = extract_features(sg, mixed, platform)
        assert_same_nest_features(
            features, NestFeatures.from_nests(sg, [Schedule(sg, s.primitives, s.target).apply()
                                                   for s in schedules]))
        padded += int((features.padded_points > features.domain_points).sum())
        for i in (0, 21, 39):
            record = measure(sg, mixed[i], platform, root_seed=3)
            one, one_terms, one_quirk = reference_latencies(sg, [mixed[i]], platform, 3)
            assert np.float32(record.latency).tobytes() == one.tobytes()
            assert record.quirk == float(one_quirk[0])
            for term, values in one_terms.items():
                assert getattr(record, term) == float(values[0]), term
    assert padded > 0


@pytest.mark.parametrize("target", ["cpu", "gpu"])
def test_measure_many_raises_what_apply_raises(target):
    """An invalid schedule raises what its ``Schedule.apply`` raises, the
    first in batch order, also when a clean schedule of its structural key
    comes first; the subgraph and target checks run over the batch before."""
    platform = _INTEL if target == "cpu" else _T4
    base = SketchGenerator(SketchConfig(target)).generate_many(
        _SUB, 6, stream(f"test.simhw.errors.{target}"))
    n_cases = 0
    for _code, _name, mutator in CORRUPTIONS:
        for k in (0, 3):
            bad = mutator(base[k])
            if bad is None:
                continue
            n_cases += 1
            batch = [*base, base[k]]
            batch[k] = batch[-1] = Schedule(_SUB, bad, target)
            with pytest.raises(Exception) as want:  # whatever apply raises is the oracle
                for s in batch:
                    s.apply()
            for schedules in (batch, [s.primitives for s in batch]):
                for call in (lambda: measure_many(_SUB, schedules, platform),
                             lambda: measure(_SUB, schedules[k], platform)):
                    with pytest.raises(type(want.value)) as got:
                        call()
                    assert str(got.value) == str(want.value)
                    assert (got.value.code, got.value.step) == (want.value.code, want.value.step)
            with pytest.raises(ValueError, match="targets"):
                measure_many(_SUB, [*batch, Schedule(_SUB, (), "gpu" if target == "cpu"
                                                      else "cpu")], platform)
            with pytest.raises(ValueError, match="built for subgraph"):
                measure_many(_SUB, [*batch, Schedule(matmul_subgraph(64, 64, 64), (),
                                                      target)], platform)
    assert n_cases >= 14
    empty = measure_many(_SUB, [], platform)
    assert empty.dtype == np.float32 and empty.shape == (0,)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    root_seed=st.integers(min_value=0, max_value=8),
    name=st.sampled_from([p.name for p in CPU_PLATFORMS]),
)
def test_measure_is_bit_identical_after_state_rederivation(seed, root_seed, name):
    """A fresh process has no rng-stream or quirk cache — dropping the
    memoized quirk draws and re-deriving every stream must reproduce the
    latency bit-for-bit."""
    gen = SketchGenerator(SketchConfig("cpu"))
    schedule = gen.generate(_SUB, stream(f"test.simhw.prop.{seed}"))
    first = measure(_SUB, schedule, name, root_seed=root_seed).latency
    _quirk_unit.cache_clear()
    second = measure(_SUB, schedule, name, root_seed=root_seed).latency
    assert np.float32(first).tobytes() == np.float32(second).tobytes()


def test_root_seed_changes_quirks_only_deterministically():
    schedule = Schedule(_SUB, (P.annotate("i", "parallel"),))
    a = measure(_SUB, schedule, _INTEL, root_seed=0)
    b = measure(_SUB, schedule, _INTEL, root_seed=1)
    assert a.latency != b.latency
    assert a.compute_cycles == b.compute_cycles  # the model itself is seed-free
    assert a.latency == measure(_SUB, schedule, _INTEL, root_seed=0).latency


def test_digest_is_identical_across_processes():
    cmd = [sys.executable, "-m", "repro.simhw.measure", "--digest"]
    env_path = str(REPO_ROOT / "src")
    runs = [
        subprocess.run(cmd, capture_output=True, text=True, check=True,
                       cwd=REPO_ROOT, env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"})
        for _ in range(2)
    ]
    digests = {r.stdout.strip() for r in runs}
    assert len(digests) == 1 and len(digests.pop()) == 64


# -- labels + throughput -----------------------------------------------------


def test_labels_are_min_normalized_into_unit_interval(cpu_corpus):
    latencies, labels = measure_labels(_SUB, cpu_corpus, "epyc-7452")
    assert labels.dtype == np.float32
    assert labels.max() == np.float32(1.0)
    assert np.all((labels > 0) & (labels <= 1))
    assert np.array_equal(labels, labels_from_latencies(latencies))
    best = int(np.argmin(latencies))
    assert labels[best] == np.float32(1.0)


def test_labels_reject_nonpositive_and_pass_empty():
    with pytest.raises(ValueError, match="positive"):
        labels_from_latencies(np.array([1.0, 0.0], dtype=np.float32))
    assert labels_from_latencies(np.array([], dtype=np.float32)).size == 0
