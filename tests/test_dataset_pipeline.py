"""End-to-end dataset factory invariants on a small store.

The heavy contracts: the single-pass pipeline's columns are
bit-identical to the compose-by-hand path (``generate_many`` ->
``measure_many`` / per-candidate ``profile`` rows / ``reference_transform``), labels normalize
per (task, platform), the store is a pure function of (spec, root
seed), and the manifest journals exactly what is on disk.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corruptions import CORRUPTIONS, dead_axis
from batch_reference import reference_profiles
from repro.analysis import batch as batch_module
from repro.analysis.absint import AbsIntError
from repro.core import reference_transform
from repro.dataset import (
    DatasetSpec,
    Manifest,
    ShardReader,
    build_dataset,
    enumerate_tasks,
    plan_batches,
)
from repro.dataset.pipeline import DatasetError, fit_featurizer
from repro.dataset.shards import COLUMN_NAMES, verify_shard
from repro.dataset.spec import candidate_stream
from repro.simhw import measure_many
from repro.tensorir import Schedule, SketchConfig, SketchGenerator
from repro.tensorir.sampler import ScheduleSampler
from repro.utils.rng import seed_for, stream


def small_spec(**kw) -> DatasetSpec:
    base = dict(
        name="t-pipe",
        networks=("bert_tiny",),
        platforms=("platinum-8272", "graviton2", "t4"),
        candidates_per_task=16,
        shard_size=64,
        holdout_networks=(),
    )
    base.update(kw)
    return DatasetSpec(**base)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    spec = small_spec()
    store_dir = tmp_path_factory.mktemp("store")
    manifest = build_dataset(spec, store_dir)
    return spec, store_dir, manifest


# -- store shape --------------------------------------------------------


def test_manifest_matches_disk(store):
    spec, store_dir, manifest = store
    assert manifest.complete
    assert manifest.records_done() == manifest.total_records
    # 5 tasks x 16 candidates x 3 platforms = 240 records in 64-row shards.
    assert manifest.total_records == 240
    assert [s.n_records for s in manifest.shards] == [64, 64, 64, 48]
    for rec in manifest.shards:
        assert verify_shard(
            store_dir, rec.index, rec.n_records, rec.digest, manifest.schema,
            level="digest",
        )
    reloaded = Manifest.load(store_dir)
    assert reloaded.to_dict() == manifest.to_dict()


def test_refusing_to_overwrite_without_resume(store):
    spec, store_dir, _ = store
    with pytest.raises(DatasetError, match="resume=True"):
        build_dataset(spec, store_dir)


def test_fig6_stats_aggregate(store):
    _, _, manifest = store
    stats = manifest.stats
    assert stats["sequences"] == sum(e["n"] for e in manifest.batch_stats.values())
    hist = {int(k): v for k, v in stats["length_hist"].items()}
    assert sum(hist.values()) == stats["sequences"]
    assert stats["min_len"] >= 1
    assert stats["max_len"] >= stats["mode_len"] >= stats["min_len"]
    assert stats["records"]["train"] + stats["records"]["holdout"] == 240


# -- column-level bit-identity with the compose-by-hand path ------------


def test_columns_bit_identical_to_manual_composition(store):
    spec, store_dir, manifest = store
    reader = ShardReader(store_dir)
    task_ids = reader.task_ids()
    featurizer = fit_featurizer(spec)

    for plan in plan_batches(spec):
        task = plan.task
        schedules = SketchGenerator(SketchConfig(plan.target)).generate_many(
            task.subgraph,
            plan.n_candidates,
            stream(candidate_stream(spec, task, plan.target), spec.root_seed),
        )
        X_ref, mask_ref = reference_transform(featurizer, schedules)
        static_ref, _ = reference_profiles(task.subgraph, schedules, plan.target)
        for pi, platform_idx in enumerate(plan.platform_ids):
            rows = np.arange(plan.row_start + pi * plan.n_candidates,
                             plan.row_start + (pi + 1) * plan.n_candidates)
            record = reader.gather(rows, columns=COLUMN_NAMES)
            cols = dict(zip(COLUMN_NAMES, record))
            lat_ref = measure_many(
                task.subgraph, schedules, spec.platforms[platform_idx],
                root_seed=spec.root_seed,
            )
            assert cols["X"].tobytes() == X_ref.tobytes()
            assert cols["mask"].tobytes() == mask_ref.tobytes()
            assert cols["static"].tobytes() == static_ref.tobytes()
            assert cols["latency"].tobytes() == lat_ref.tobytes()
            label_ref = lat_ref.min() / lat_ref
            assert cols["label"].tobytes() == label_ref.astype(np.float32).tobytes()
            assert (cols["task_id"] == task.task_id).all()
            assert (cols["platform_id"] == platform_idx).all()
            assert (cols["candidate"] == np.arange(plan.n_candidates)).all()
            assert (
                cols["seed"]
                == seed_for(candidate_stream(spec, task, plan.target), spec.root_seed)
            ).all()
    assert task_ids.shape == (len(reader),)


def test_labels_normalize_per_task_platform(store):
    _, store_dir, _ = store
    reader = ShardReader(store_dir)
    lat, label, task_id, plat = (
        np.concatenate([np.asarray(reader._column(s, c)) for s in range(reader.n_shards)])
        for c in ("latency", "label", "task_id", "platform_id")
    )
    for t in np.unique(task_id):
        for p in np.unique(plat):
            sel = (task_id == t) & (plat == p)
            if not sel.any():
                continue
            assert label[sel].max() == np.float32(1.0)
            assert np.all(label[sel] > 0)
            # label is min/latency within exactly this (task, platform) group
            expect = (lat[sel].min() / lat[sel]).astype(np.float32)
            assert np.array_equal(label[sel], expect)


# -- reproducibility ----------------------------------------------------


def test_same_spec_same_bytes_different_seed_different_bytes(store, tmp_path):
    spec, _, manifest = store
    again = build_dataset(spec, tmp_path / "again")
    assert again.store_digest() == manifest.store_digest()
    assert again.to_dict() == manifest.to_dict()

    reseeded = build_dataset(
        small_spec(root_seed=1234), tmp_path / "reseeded"
    )
    assert reseeded.store_digest() != manifest.store_digest()


@settings(max_examples=4, deadline=None)
@given(
    candidates=st.integers(min_value=2, max_value=9),
    shard_size=st.integers(min_value=5, max_value=40),
    root_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_hypothesis_store_is_pure_function_of_spec_and_seed(
    tmp_path_factory, candidates, shard_size, root_seed
):
    """(manifest, root seed) => bit-identical shards, whatever the
    batch/shard geometry does to record packing."""
    spec = small_spec(
        name="t-hyp",
        networks=("bert_tiny",),
        platforms=("i7-10510u", "k80"),
        candidates_per_task=candidates,
        shard_size=shard_size,
        root_seed=root_seed,
    )
    root = tmp_path_factory.mktemp("hyp")
    a = build_dataset(spec, root / "a")
    b = build_dataset(spec, root / "b")
    assert a.store_digest() == b.store_digest()
    assert a.to_dict() == b.to_dict()
    ra, rb = ShardReader(root / "a"), ShardReader(root / "b")
    idx = np.arange(len(ra))
    for col_a, col_b in zip(ra.gather(idx, COLUMN_NAMES), rb.gather(idx, COLUMN_NAMES)):
        assert col_a.tobytes() == col_b.tobytes()


# -- featurizer fit determinism -----------------------------------------


def test_fit_featurizer_is_deterministic():
    spec = small_spec()
    a, b = fit_featurizer(spec), fit_featurizer(spec)
    assert a.vocab_ == b.vocab_
    assert a.raw_width_ == b.raw_width_


def test_build_shares_one_plan_table(tmp_path, monkeypatch):
    """Every batch profile of a build, the featurizer-fit corpus's and
    the store's, shares one plan table, so no structural key is
    interpreted twice; the store's bytes are those of a build whose
    batches each keep their own table."""
    spec = small_spec(name="t-plans", networks=("bert_tiny", "resnet18"),
                      candidates_per_task=8)
    tables, runs = [], []
    init, profile = batch_module.BatchProfile.__init__, batch_module.Interpreter.profile

    def recording_init(self, subgraph, sequences, target="cpu", recheck=None, plans=None):
        tables.append(plans)
        init(self, subgraph, sequences, target, recheck, plans)

    def counting_profile(self, prims, log=None):
        runs.append(log is not None)
        return profile(self, prims, log)

    monkeypatch.setattr(batch_module.BatchProfile, "__init__", recording_init)
    monkeypatch.setattr(batch_module.Interpreter, "profile", counting_profile)
    shared = build_dataset(spec, tmp_path / "shared")
    assert tables and all(t is tables[0] for t in tables)
    assert sum(runs) == len(tables[0]) < batch_module.PLANS_HELD

    def own_table(self, subgraph, sequences, target="cpu", recheck=None, plans=None):
        init(self, subgraph, sequences, target, recheck, {})

    monkeypatch.setattr(batch_module.BatchProfile, "__init__", own_table)
    runs.clear()
    separate = build_dataset(spec, tmp_path / "separate")
    assert sum(runs) > len(tables[0])
    assert shared.store_digest() == separate.store_digest()


def test_tasks_table_matches_enumeration(store):
    spec, _, manifest = store
    tasks = enumerate_tasks(spec)
    assert len(manifest.tasks) == len(tasks)
    for entry, task in zip(manifest.tasks, tasks):
        assert entry["task_id"] == task.task_id
        assert entry["network"] == task.network
        assert entry["subgraph"] == task.subgraph.name


# -- the build's fail-closed gate ---------------------------------------

#: A tiny one-network, one-platform build: 5 batches of 8 candidates in
#: 12-row shards, so the faulted batch (plan 2, rows 16..23) starts
#: mid-shard and a gate placed after the write would journal shard 1.
_FAULT_PLAN, _FAULT_CANDIDATE = 2, 3


def _fault_spec() -> DatasetSpec:
    return small_spec(
        name="t-gate",
        platforms=("platinum-8272",),
        candidates_per_task=8,
        shard_size=12,
    )


def _inject(monkeypatch, spec, mutator) -> dict:
    """Corrupt the sampler's output for one candidate of one batch.

    The build samples the featurizer-fit corpus first, then each batch in
    plan order; the call count places the fault on ``_FAULT_CANDIDATE``
    of plan ``_FAULT_PLAN``.
    """
    original = ScheduleSampler.sample
    state = {"calls": 0, "fault_at": 0, "fired": False}

    def sample(self, subgraph, rng):
        schedule = original(self, subgraph, rng)
        state["calls"] += 1
        if state["calls"] != state["fault_at"]:
            return schedule
        corrupted = mutator(schedule)
        assert corrupted is not None, "corruption does not apply to the chosen candidate"
        state["fired"] = True
        return Schedule(schedule.subgraph, corrupted, target=schedule.target)

    monkeypatch.setattr(ScheduleSampler, "sample", sample)
    fit_featurizer(spec)  # disarmed: only counts the fit corpus's calls
    # 1-based: the fit's calls, the earlier batches, then the candidate.
    state["fault_at"] = (
        state["calls"] + _FAULT_PLAN * spec.candidates_per_task + _FAULT_CANDIDATE + 1
    )
    state["calls"] = 0
    return state


@pytest.mark.parametrize(
    "mutator", [m for _, _, m in CORRUPTIONS], ids=[name for _, name, _ in CORRUPTIONS]
)
def test_corrupt_candidate_fails_the_build_before_its_rows_are_written(
    tmp_path, monkeypatch, mutator
):
    """With the verifier pass skipped, absint.profile is the build's only
    gate: every corruption class must stop the build with a DatasetError
    naming the candidate, and none of that batch's rows may be journaled."""
    spec = _fault_spec()
    plan = plan_batches(spec)[_FAULT_PLAN]
    state = _inject(monkeypatch, spec, mutator)
    store_dir = tmp_path / "store"
    with pytest.raises(DatasetError) as err:
        build_dataset(spec, store_dir)
    assert state["fired"]
    message = str(err.value)
    assert f"task {plan.task.task_id} " in message
    assert f"target {plan.target}:" in message
    assert f"candidate {_FAULT_CANDIDATE} " in message
    assert isinstance(err.value.__cause__, AbsIntError)
    assert f"step {err.value.__cause__.step}:" in message
    journal = Manifest.load(store_dir)
    assert not journal.complete
    assert journal.records_done() <= plan.row_start
    assert plan.key not in journal.batch_stats


def test_resume_after_a_rejected_candidate_matches_a_clean_build(tmp_path, monkeypatch):
    spec = _fault_spec()
    _inject(monkeypatch, spec, dead_axis)
    with pytest.raises(DatasetError):
        build_dataset(spec, tmp_path / "faulted")
    assert Manifest.load(tmp_path / "faulted").shards  # a journaled prefix survives
    monkeypatch.undo()
    resumed = build_dataset(spec, tmp_path / "faulted", resume=True)
    clean = build_dataset(spec, tmp_path / "clean")
    assert resumed.complete
    assert resumed.store_digest() == clean.store_digest()
    assert resumed.to_dict() == clean.to_dict()
