"""The streaming dataset factory: (spec, root seed) -> columnar shard store.

One single pass per (task, target) batch does all the work the TenSet
pipeline spreads over a measurement farm:

1. **Generate** — ``SketchGenerator.generate_many(..., verify=False)``
   samples the task's candidate schedules from a batch-private named rng
   stream (``spec.candidate_stream``).  The verifier pass is skipped
   because step 2 is the gate.
2. **Profile (the fail-closed gate)** — ``repro.analysis.batch.BatchProfile``
   groups the batch by structural key, abstractly interprets one
   sequence per key and the rest as integer columns, and yields both the
   static feature plane and the nest features the cost models price
   (``NestFeatures``), with no schedule applied and no per-candidate
   profile or loop nest built.  The verifier is the same interpreter in
   collect mode, so the pass rejects exactly the sequences the verifier
   rejects and one pass both checks and profiles: on a rejection the
   batch is re-run through ``profile`` one candidate at a time, and the
   first invalid candidate becomes a :class:`DatasetError` naming the
   task, target, candidate index and step, before any row of its batch
   reaches the :class:`ShardWriter`.
3. **Featurize** — ``TLPFeaturizer.transform_into`` writes the
   ``[C, seq_len, emb]`` TLP planes straight into one preallocated batch
   buffer, on the static pass's grouping: each group's rows once, then
   every member's ints into its numeric slots (the featurizer's memo is
   cleared between batches so memory stays flat).
4. **Measure** — the nest features are priced on *every* spec platform
   of the batch's target with the
   vectorized ``simhw`` cost models + deterministic quirk streams —
   bit-identical to ``measure_many``, but the generation/profiling/
   featurization cost is amortized across all same-target platforms.
5. **Label + stream out** — per-(task, platform) ``min_latency/latency``
   labels, then rows stream into the :class:`ShardWriter`, which
   journals every completed shard into the manifest.

Peak memory is one candidate batch plus one shard, independent of the
dataset size; throughput on one core is >= 5K records/s end-to-end
(``BENCH_dataset.json``).  The whole store — shard bytes *and* manifest
bytes — is a pure function of ``(spec, root seed)``, resumable from the
manifest after a crash mid-shard.

``python -m repro.dataset.pipeline`` runs the 2-platform smoke wired
into ``make check`` (``make smoke-dataset``).
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from repro.analysis.absint import STATIC_FEATURE_NAMES, AbsIntError, profile
from repro.analysis.batch import BatchProfile
from repro.core.extractor import TLPFeaturizer
from repro.core.postprocess import PostprocessConfig
from repro.dataset.manifest import (
    MANIFEST_FILENAME,
    Manifest,
    ShardRecord,
    vocab_digest,
)
from repro.dataset.shards import (
    SHARD_PREFIX,
    ShardSchema,
    ShardWriter,
    TMP_SUFFIX,
    clean_tmp_dirs,
    verify_shard,
)
from repro.dataset.spec import (
    BatchPlan,
    DatasetSpec,
    Task,
    candidate_stream,
    enumerate_tasks,
    fit_stream,
    plan_batches,
    total_records,
)
from repro.simhw import cpu_model, gpu_model
from repro.simhw.measure import labels_from_latencies, quirk_multipliers
from repro.simhw.platform import get_platform
from repro.tensorir.sketch import SketchConfig, SketchGenerator, TARGETS
from repro.utils.rng import seed_for, stream

#: Calibration sequences per (task, target) for the featurizer fit.
FIT_SAMPLE_PER_TASK = 16


class DatasetError(RuntimeError):
    """A store is inconsistent with its spec/manifest, or misused."""


class _BuildStopped(Exception):
    """Internal: ``stop_after_shards`` reached (crash-simulation hook)."""


def _generators(spec: DatasetSpec) -> dict[str, SketchGenerator]:
    return {
        target: SketchGenerator(SketchConfig(target))
        for target in TARGETS
        if spec.platform_ids_for_target(target)
    }


def fit_featurizer(spec: DatasetSpec, plans: "dict | None" = None) -> TLPFeaturizer:
    """The store's featurizer: fitted on a deterministic calibration
    sample (``FIT_SAMPLE_PER_TASK`` sequences per task x target, from
    dedicated rng streams), so a resume re-derives it exactly —
    ``manifest.vocab_digest`` pins that.  ``plans`` keeps the gate's
    per-key interpreter runs (``BatchProfile``), shared by the corpus's
    small batches; :func:`build_dataset` passes the dict its own batches
    then share."""
    generators = _generators(spec)
    corpus = []
    plans = {} if plans is None else plans
    for task in enumerate_tasks(spec):
        for target in sorted(generators):
            corpus.extend(
                generators[target].generate_many(
                    task.subgraph,
                    FIT_SAMPLE_PER_TASK,
                    stream(fit_stream(spec, task, target), spec.root_seed),
                    plans=plans,
                )
            )
    featurizer = TLPFeaturizer(cache_size=0)
    featurizer.fit(corpus)
    return featurizer


def _task_table(spec: DatasetSpec) -> list[dict]:
    return [
        {
            "task_id": t.task_id,
            "network": t.network,
            "subgraph": t.subgraph.name,
            "split": spec.split_of(t.network),
        }
        for t in enumerate_tasks(spec)
    ]


def _length_stats(tasks_lengths: list[int]) -> dict:
    hist: dict[int, int] = {}
    for length in tasks_lengths:
        hist[length] = hist.get(length, 0) + 1
    return {
        "n": len(tasks_lengths),
        "min_len": min(tasks_lengths),
        "max_len": max(tasks_lengths),
        "mean_len": round(sum(tasks_lengths) / len(tasks_lengths), 6),
        "hist": {str(k): hist[k] for k in sorted(hist)},
    }


def _validate_resume(
    spec: DatasetSpec,
    store_dir: Path,
    schema: ShardSchema,
    vocab: dict[str, int],
    verify: str,
) -> tuple[list[ShardRecord], dict[str, dict]]:
    """Load the old manifest, keep the longest intact shard prefix, and
    delete everything after it (including unjournaled/partial shards)."""
    old = Manifest.load(store_dir)
    if old.spec.to_dict() != spec.to_dict():
        raise DatasetError(
            f"resume spec mismatch: store at {store_dir} was built from a different spec"
        )
    if old.schema != schema:
        raise DatasetError("resume geometry mismatch: record schema changed")
    if vocab_digest(old.vocab) != vocab_digest(vocab):
        raise DatasetError(
            "resume vocab mismatch: refit featurizer disagrees with the manifest "
            "(network pools or sampler changed under the store)"
        )
    kept: list[ShardRecord] = []
    for i, rec in enumerate(old.shards):
        if rec.index != i:
            raise DatasetError(f"manifest shard list is not a prefix at index {i}")
        if not verify_shard(
            store_dir, rec.index, rec.n_records, rec.digest, schema, level=verify
        ):
            break
        kept.append(rec)
    # Everything past the intact prefix is recomputed, so stale shard
    # directories there (journaled-but-corrupt, or completed-but-never-
    # journaled) must go; the writer would otherwise rename over them
    # anyway, but a clean floor makes the invariant visible.
    for path in sorted(store_dir.glob(f"{SHARD_PREFIX}*")):
        if not path.is_dir() or path.name.endswith(TMP_SUFFIX):
            continue
        index = int(path.name[len(SHARD_PREFIX):])
        if index >= len(kept):
            shutil.rmtree(path)
    return kept, dict(old.batch_stats)


def build_dataset(
    spec: DatasetSpec,
    store_dir: "Path | str",
    *,
    resume: bool = False,
    verify: str = "shape",
    stop_after_shards: "int | None" = None,
) -> Manifest:
    """Build (or resume) the shard store for ``spec`` under ``store_dir``.

    Returns the manifest — ``status == "complete"`` unless
    ``stop_after_shards`` stopped the build early (the crash-simulation
    hook the resume tests use; real crashes behave identically because
    every completed shard + manifest save is atomic and ordered).

    ``verify`` controls how hard a resume checks the shards it keeps:
    ``"shape"`` (headers only, default) or ``"digest"`` (full re-hash).
    """
    store_dir = Path(store_dir)
    store_dir.mkdir(parents=True, exist_ok=True)
    manifest_exists = (store_dir / MANIFEST_FILENAME).exists()
    if manifest_exists and not resume:
        raise DatasetError(
            f"{store_dir} already holds a store; pass resume=True to continue it"
        )

    cfg = PostprocessConfig()
    schema = ShardSchema(
        seq_len=cfg.seq_len, emb=cfg.emb, static_width=len(STATIC_FEATURE_NAMES)
    )
    # One plan table for the whole build: a structural key the fit corpus,
    # or an earlier batch with the same axis names, already interpreted
    # is not interpreted again.
    plans: dict = {}
    featurizer = fit_featurizer(spec, plans)
    vocab = dict(featurizer.vocab_)

    clean_tmp_dirs(store_dir)
    if resume and manifest_exists:
        kept, batch_stats = _validate_resume(spec, store_dir, schema, vocab, verify)
    else:
        kept, batch_stats = [], {}

    total = total_records(spec)
    manifest = Manifest(
        spec=spec,
        schema=schema,
        vocab=vocab,
        tasks=_task_table(spec),
        total_records=total,
        shards=kept,
        batch_stats=batch_stats,
        status="building",
    )
    manifest.save(store_dir)
    resume_row = manifest.records_done()

    def on_shard(index: int, n: int, digest: str) -> None:
        manifest.shards.append(ShardRecord(index=index, n_records=n, digest=digest))
        manifest.save(store_dir)
        if stop_after_shards is not None and len(manifest.shards) >= stop_after_shards:
            raise _BuildStopped

    writer = ShardWriter(
        store_dir,
        schema,
        spec.shard_size,
        start_index=len(kept),
        on_shard=on_shard,
    )
    try:
        _run_plans(spec, featurizer, writer, manifest, resume_row, plans)
        writer.finalize()
    except _BuildStopped:
        return manifest  # journaled up to a shard boundary; resumable

    if manifest.records_done() != total:
        raise DatasetError(
            f"store row count {manifest.records_done()} != planned {total}"
        )
    manifest.finalize_stats()
    manifest.save(store_dir)
    return manifest


def _run_plans(
    spec: DatasetSpec,
    featurizer: TLPFeaturizer,
    writer: ShardWriter,
    manifest: Manifest,
    resume_row: int,
    plans: dict,
) -> None:
    """Iterate the row plan, recomputing only batches past the resume row;
    ``plans`` is the build's plan table (:func:`build_dataset`)."""
    generators = _generators(spec)
    schema = manifest.schema
    C = spec.candidates_per_task

    # The per-batch buffers, allocated once: steady state rewrites these.
    X_buf = np.zeros((C, schema.seq_len, schema.emb), dtype=np.float32)
    mask_buf = np.zeros((C, schema.seq_len), dtype=np.float32)
    static_buf = np.empty((C, schema.static_width), dtype=np.float32)
    task_buf = np.empty(C, dtype=np.int32)
    platform_buf = np.empty(C, dtype=np.int16)
    seed_buf = np.empty(C, dtype=np.uint64)
    candidate_col = np.arange(C, dtype=np.int32)

    for plan in plan_batches(spec):
        if plan.row_end <= resume_row:
            continue  # fully inside the intact shard prefix
        _emit_batch(
            spec, plan, generators[plan.target], featurizer, writer, manifest,
            resume_row,
            X_buf, mask_buf, static_buf, task_buf, platform_buf, seed_buf,
            candidate_col, plans,
        )
        # Keep long runs flat: the featurizer's per-primitive row memo is
        # unbounded by design (hot for re-queries, cold across tasks).
        featurizer.cache_clear()


def _emit_batch(
    spec: DatasetSpec,
    plan: BatchPlan,
    generator: SketchGenerator,
    featurizer: TLPFeaturizer,
    writer: ShardWriter,
    manifest: Manifest,
    resume_row: int,
    X_buf: np.ndarray,
    mask_buf: np.ndarray,
    static_buf: np.ndarray,
    task_buf: np.ndarray,
    platform_buf: np.ndarray,
    seed_buf: np.ndarray,
    candidate_col: np.ndarray,
    plans: dict,
) -> None:
    task: Task = plan.task
    C = plan.n_candidates
    stream_name = candidate_stream(spec, task, plan.target)

    # Unverified on purpose: the profile pass below is this batch's gate.
    schedules = generator.generate_many(
        task.subgraph, C, stream(stream_name, spec.root_seed), verify=False
    )

    # One batch pass yields the static plane AND the nest features, with
    # no schedule applied and no per-candidate profile built.  An invalid
    # candidate stops the build before any row of this batch is written.
    def recheck() -> None:
        for i, schedule in enumerate(schedules):
            try:
                profile(task.subgraph, schedule, plan.target)
            except AbsIntError as err:
                raise DatasetError(
                    f"task {task.task_id} ({task.network}/{task.subgraph.name}), "
                    f"target {plan.target}: candidate {i} rejected by abstract "
                    f"interpretation at {err}"
                ) from err

    batch = BatchProfile(task.subgraph, schedules, plan.target, recheck, plans)
    static_buf[:C] = batch.static_plane()
    feats = batch.nest_features()
    featurizer.transform_into(batch.groups, X_buf, mask_buf)

    stats = _length_stats([len(s.primitives) for s in schedules])
    previous = manifest.batch_stats.get(plan.key)
    if previous is not None and previous != stats:
        raise DatasetError(
            f"non-deterministic recompute of batch {plan.key}: {previous} != {stats}"
        )
    manifest.batch_stats[plan.key] = stats

    task_buf[:] = task.task_id
    seed_buf[:] = seed_for(stream_name, spec.root_seed)
    model = gpu_model if plan.target == "gpu" else cpu_model

    for pi, platform_idx in enumerate(plan.platform_ids):
        slice_start = plan.row_start + pi * C
        skip = resume_row - slice_start
        if skip >= C:
            continue  # this platform's rows are already durable
        skip = max(skip, 0)
        platform = get_platform(spec.platforms[platform_idx])
        seconds, _ = model.latency_seconds(feats, platform)
        quirk = quirk_multipliers(feats.signatures, platform, spec.root_seed)
        latency = (seconds * quirk).astype(np.float32)
        label = labels_from_latencies(latency)  # per-(task, platform) min
        platform_buf[:] = platform_idx
        writer.append(
            {
                "X": X_buf[skip:C],
                "mask": mask_buf[skip:C],
                "static": static_buf[skip:C],
                "latency": latency[skip:],
                "label": label[skip:],
                "task_id": task_buf[skip:C],
                "platform_id": platform_buf[skip:C],
                "candidate": candidate_col[skip:C],
                "seed": seed_buf[skip:C],
            }
        )


# -- smoke --------------------------------------------------------------


def smoke_spec() -> DatasetSpec:
    """The tiny 2-platform, multi-shard spec the smoke + tests reuse."""
    return DatasetSpec(
        name="smoke",
        networks=("bert_tiny", "mobilenet_v2"),
        platforms=("platinum-8272", "t4"),
        candidates_per_task=64,
        shard_size=256,
        holdout_networks=("mobilenet_v2",),
    )


def _smoke() -> dict[str, object]:
    """Build the smoke store twice; assert bit-identical + readable."""
    import tempfile

    from repro.dataset.reader import ShardReader
    from repro.utils.timer import Timer

    spec = smoke_spec()
    with tempfile.TemporaryDirectory(prefix="repro-dataset-smoke-") as tmp:
        root = Path(tmp)
        with Timer() as t:
            first = build_dataset(spec, root / "a")
        again = build_dataset(spec, root / "b")
        if first.store_digest() != again.store_digest():
            raise AssertionError("dataset store is not bit-reproducible across builds")
        if first.to_dict() != again.to_dict():
            raise AssertionError("dataset manifest is not reproducible across builds")

        reader = ShardReader(root / "a")
        if len(reader) != first.total_records:
            raise AssertionError(
                f"reader sees {len(reader)} records, manifest says {first.total_records}"
            )
        X, mask, label = reader[np.arange(min(128, len(reader)))]
        if not (np.isfinite(X).all() and label.max() <= 1.0 and label.min() > 0.0):
            raise AssertionError("smoke store records out of range")
        holdout = reader.split_indices("holdout")
        train = reader.split_indices("train")
        if len(holdout) + len(train) != len(reader) or not len(holdout):
            raise AssertionError("network-level split does not partition the store")
        return {
            "records": first.total_records,
            "shards": len(first.shards),
            "records_per_sec": first.total_records / t.elapsed,
            "seconds": t.elapsed,
            "digest": first.store_digest(),
        }


def main(argv: "list[str] | None" = None) -> int:
    import sys

    args = list(sys.argv[1:] if argv is None else argv)
    stats = _smoke()
    if "--digest" in args:
        print(stats["digest"])
        return 0
    print(
        f"dataset smoke OK: {stats['records']} records in {stats['shards']} shards, "
        f"built twice bit-identically in {stats['seconds']:.2f}s each "
        f"({stats['records_per_sec']:.0f} records/s; digest {str(stats['digest'])[:16]}...)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "DatasetError",
    "FIT_SAMPLE_PER_TASK",
    "build_dataset",
    "fit_featurizer",
    "smoke_spec",
]
