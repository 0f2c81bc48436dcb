"""Training-loop throughput: the ISSUE 8 hot path.

One offline epoch is millions of ``train_step`` calls' worth of rows, so
the per-batch cost (gather into pooled buffers -> forward -> lambda-rank
-> backward -> Adam) is what bounds wall-clock training time.  Measured
here on a real built store with the smoke-train model geometry:

* ``train_step`` on a full packed batch — the headline records/sec
  (:func:`scenario` records the exact number into
  ``BENCH_training.json``: ``python benchmarks/save.py training``);
* steady-state gather allocations: after warm-up, every arena probe for
  the X / mask / label buffers must be a pool hit (recycling the mask
  buffer is safe: the attention bias is recomputed from its contents);
* a whole ``train_epoch`` for the end-to-end figure including loader
  shuffling and loss bookkeeping.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.tlp_model import TLPModel, TLPModelConfig
from repro.core.trainer import TrainConfig, Trainer, _run_digest
from repro.dataset.pipeline import build_dataset
from repro.dataset.reader import ShardReader
from repro.dataset.spec import DatasetSpec
from repro.utils.timer import Timer

#: The scenario's mid-scale store: 5 network pools x 96 candidates per task.
NETWORKS = ("bert_tiny", "resnet18", "resnet50", "bert_base", "mobilenet_v2")
CANDIDATES = 96
SHARD_SIZE = 8192
FLOOR_RECORDS_PER_SEC = 1500.0


def build_store(root: Path, networks: tuple[str, ...], candidates: int, shard_size: int):
    """A platinum-8272 store with mobilenet_v2 held out."""
    spec = DatasetSpec(name="bench-training", networks=networks,
                       platforms=("platinum-8272",), candidates_per_task=candidates,
                       shard_size=shard_size, holdout_networks=("mobilenet_v2",))
    return build_dataset(spec, root)


def build_trainer(root: Path, stream_name: "str | None" = None) -> Trainer:
    """The smoke-train model geometry over the store at ``root``.

    ``stream_name`` names the trainer's rng stream and, suffixed
    ``.model``, the model's; ``None`` keeps the library defaults.
    """
    reader = ShardReader(root)
    emb = reader.manifest.schema.columns()["X"][1][-1]
    model_config = TLPModelConfig(emb=emb, hidden=48, n_heads=4, n_res_blocks=2)
    train_config = TrainConfig(epochs=4, batch_size=64, segment_size=16, lr=1e-3)
    if stream_name is not None:
        model_config = dataclasses.replace(model_config, stream_name=f"{stream_name}.model")
        train_config = dataclasses.replace(train_config, stream_name=stream_name)
    return Trainer(TLPModel(model_config), reader, train_config)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench-training") / "store"
    build_store(root, ("bert_tiny", "resnet18", "mobilenet_v2"), 64, 4096)
    return root


@pytest.fixture(scope="module")
def trainer(store):
    return build_trainer(store, "bench.training")


@pytest.fixture(scope="module")
def packed_batch(trainer):
    """The first full-size packed batch of epoch 0 (fixed geometry)."""
    for idx, gids in trainer.loader.iter_indices():
        if idx.shape[0] == trainer.config.batch_size:
            return idx, gids
    raise AssertionError("loader produced no full batch")


def test_train_step_batch64(benchmark, trainer, packed_batch):
    idx, gids = packed_batch
    loss = benchmark(trainer.train_step, idx, gids)
    assert np.isfinite(loss)


def test_train_step_steady_state_gathers_allocate_nothing(trainer, packed_batch):
    """After warm-up, the X / mask / label gather buffers are pure pool hits."""
    idx, gids = packed_batch
    trainer.train_step(idx, gids)  # warm the arena for this geometry
    trainer._arena.reset_counters()
    for _ in range(3):
        trainer.train_step(idx, gids)
    assert trainer._arena.misses == 0
    assert trainer._arena.hits == 9  # X + mask + label, three steps


def test_train_epoch_end_to_end(benchmark, trainer):
    mean_loss = benchmark.pedantic(trainer.train_epoch, rounds=1, iterations=1)
    assert np.isfinite(mean_loss)


def scenario() -> dict:
    """The ``training`` scenario: one warm-up epoch, then three timed ones.

    The floor sits well under the recorded rate: it catches training-loop
    regressions (a lost arena pool, a stray per-batch copy of the wide X
    block), not the headline.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-training-") as tmp:
        root = Path(tmp) / "store"
        with Timer() as t_build:
            manifest = build_store(root, NETWORKS, CANDIDATES, SHARD_SIZE)
        trainer = build_trainer(root)
        rows_per_epoch = int(trainer.train_indices.shape[0])
        trainer.fit(until=1)  # warm-up: arena buffers, mmap pages
        with Timer() as t_train:
            history = trainer.fit()
        report = trainer.evaluate()
    timed_epochs = trainer.config.epochs - 1
    records_per_sec = rows_per_epoch * timed_epochs / t_train.elapsed
    losses = [row["loss"] for row in history]
    assert losses[-1] < losses[0], f"loss did not decrease: {losses}"
    assert records_per_sec >= FLOOR_RECORDS_PER_SEC, (
        f"train_step throughput {records_per_sec:.0f}/s under the "
        f"{FLOOR_RECORDS_PER_SEC:.0f}/s floor")
    return {
        "config": {"networks": list(NETWORKS), "candidates_per_task": CANDIDATES,
                   "shard_size": SHARD_SIZE,
                   "model": dataclasses.asdict(trainer.model.config),
                   "train": dataclasses.asdict(trainer.config),
                   "timed_epochs": timed_epochs},
        "throughput": {"records_per_sec": records_per_sec},
        "stages": {"store_build": t_build.elapsed, "train_timed_epochs": t_train.elapsed},
        "counters": {"store_records": manifest.total_records,
                     "train_rows_per_epoch": rows_per_epoch,
                     "final_loss": losses[-1],
                     "holdout_top_k": {str(k): v for k, v in report["top_k"].items()},
                     "random_top_k": {str(k): v for k, v in report["random_top_k"].items()}},
        "digest": _run_digest(trainer.model, history),
    }
