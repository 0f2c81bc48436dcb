"""Micro-benchmarks for the dataset factory hot path (ISSUE 7).

The acceptance claim: the single-pass pipeline streams >= 5,000 records
per second per core into the shard store when featurization, profiling,
and generation are amortized across all same-target platforms.  These
benchmarks pin the per-stage shares on a store small enough for the
pytest loop; :func:`scenario` records the full-scale number (>= 1M
records, all 7 platforms) into ``BENCH_dataset.json`` (``python
benchmarks/save.py dataset``, ~2 min).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dataset import DatasetSpec, ShardReader, build_dataset
from repro.dataset.pipeline import fit_featurizer
from repro.simhw import PLATFORMS
from repro.tensorir import network_names, network_pool
from repro.utils.rng import stream

#: One bert task, all 7 platforms: ~4 candidate batches/sec of real work.
SPEC = DatasetSpec(
    name="bench",
    networks=("bert_tiny",),
    platforms=tuple(PLATFORMS),
    candidates_per_task=256,
    shard_size=2048,
)

#: 30 tasks x 4,800 candidates x 7 platforms = 1,008,000 records.
FULL_CANDIDATES = 4800
FLOOR_RECORDS_PER_SEC = 5000.0
#: Full-scale peak RSS must stay within this factor of the 1/8-scale run.
RSS_FLATNESS_FACTOR = 1.35


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("bench-store")
    manifest = build_dataset(SPEC, store_dir)
    return store_dir, manifest


def test_build_throughput(benchmark, tmp_path_factory):
    """End-to-end records/sec on the 7-platform amortized path."""
    counter = iter(range(10_000))

    def build():
        store_dir = tmp_path_factory.mktemp(f"b{next(counter)}")
        return build_dataset(SPEC, store_dir)

    manifest = benchmark.pedantic(build, rounds=3, iterations=1)
    assert manifest.complete
    # 5 tasks x 256 candidates x 7 platforms.
    assert manifest.total_records == 8960


def test_featurizer_fit(benchmark):
    featurizer = benchmark(fit_featurizer, SPEC)
    assert featurizer.is_fitted


def test_transform_into_reuses_buffers(benchmark):
    """Steady-state featurization into donated buffers — zero tensor
    allocations per batch (the counter-pinned satellite)."""
    featurizer = fit_featurizer(SPEC)
    sg = network_pool("bert_tiny").subgraphs[0]
    from repro.tensorir import SketchConfig, SketchGenerator

    batch = SketchGenerator(SketchConfig("cpu")).generate_many(
        sg, 256, stream("bench.dataset.transform")
    )
    cfg = featurizer.config
    X = np.zeros((256, cfg.seq_len, cfg.emb), dtype=np.float32)
    mask = np.zeros((256, cfg.seq_len), dtype=np.float32)
    featurizer.transform_into(batch, X, mask)  # warm the row memo

    out = benchmark(featurizer.transform_into, batch, X, mask)
    assert out[0].shape == (256, cfg.seq_len, cfg.emb)
    assert featurizer.cache_info()["rows_encoded"] > 0


def test_reader_gather_minibatch(benchmark, store):
    """One shuffled 512-row minibatch out of the memory-mapped store."""
    store_dir, manifest = store
    reader = ShardReader(store_dir)
    rng = stream("bench.dataset.gather")
    indices = rng.permutation(manifest.total_records)[:512]

    X, mask, label = benchmark(reader.gather, indices)
    assert X.shape[0] == mask.shape[0] == label.shape[0] == 512


def full_spec(candidates: int) -> DatasetSpec:
    """The scenario's store: all 5 network pools x all 7 platforms."""
    return DatasetSpec(name="bench-full", networks=network_names(),
                       platforms=tuple(PLATFORMS), candidates_per_task=candidates,
                       shard_size=65536, holdout_networks=("mobilenet_v2",))


#: One build in a fresh interpreter, so ``ru_maxrss`` is that build's own.
_CHILD = r"""
import json, resource, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from pathlib import Path
from repro.dataset import DatasetSpec, build_dataset

spec = DatasetSpec.from_dict(json.loads(sys.argv[2]))
with tempfile.TemporaryDirectory(prefix="repro-bench-dataset-") as tmp:
    t0 = time.perf_counter()
    manifest = build_dataset(spec, Path(tmp) / "store")
    elapsed = time.perf_counter() - t0
assert manifest.complete
print(json.dumps({
    "records": manifest.total_records,
    "shards": len(manifest.shards),
    "seconds": elapsed,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "digest": manifest.store_digest(),
    "mean_seq_len": manifest.stats["mean_len"],
}))
"""


def _build_in_subprocess(spec: DatasetSpec) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, src, json.dumps(spec.to_dict())],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scenario() -> dict:
    """The ``dataset`` scenario: a >= 1M-record build and a 1/8-scale one.

    Streaming shards keep peak RSS at one candidate batch plus one shard
    whatever the store size, so the full build may not grow its peak by
    more than :data:`RSS_FLATNESS_FACTOR` over the 8x smaller one.
    """
    small = _build_in_subprocess(full_spec(FULL_CANDIDATES // 8))
    full = _build_in_subprocess(full_spec(FULL_CANDIDATES))
    records_per_sec = full["records"] / full["seconds"]
    rss_ratio = full["peak_rss_kb"] / small["peak_rss_kb"]
    assert full["records"] >= 1_000_000, full["records"]
    assert records_per_sec >= FLOOR_RECORDS_PER_SEC, (
        f"{records_per_sec:.0f} records/s under the {FLOOR_RECORDS_PER_SEC:.0f}/s floor")
    assert rss_ratio <= RSS_FLATNESS_FACTOR, (
        f"peak RSS grew {rss_ratio:.2f}x on an 8x larger build: "
        "the pipeline is no longer streaming")
    return {
        "config": {**full_spec(FULL_CANDIDATES).to_dict(),
                   "small_candidates_per_task": FULL_CANDIDATES // 8},
        "throughput": {"records_per_sec": records_per_sec},
        "stages": {"build_full": full["seconds"], "build_small": small["seconds"]},
        "counters": {"records": full["records"], "shards": full["shards"],
                     "mean_seq_len": full["mean_seq_len"],
                     "full_peak_rss_kb": full["peak_rss_kb"],
                     "small_records": small["records"],
                     "small_peak_rss_kb": small["peak_rss_kb"]},
        "digest": full["digest"],
    }
