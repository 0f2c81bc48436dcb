"""Offline trainer acceptance: streamed lambda-rank training on a built
store, held-out top-k vs the exact random baseline, and bit-identical
checkpoint/resume at every epoch boundary."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tlp_model import TLPModel, TLPModelConfig
from repro.core import NonFiniteTrainingError
from repro.core.trainer import TrainConfig, Trainer, _run_digest
from repro.dataset.pipeline import build_dataset
from repro.dataset.reader import ShardReader
from repro.dataset.spec import DatasetSpec
from repro.nn import Tensor

_NETWORKS = ("bert_tiny", "resnet18", "resnet50", "bert_base", "mobilenet_v2")


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """The smoke-train store: 5 network pools, one platform, mobilenet_v2
    held out.  Training diversity matters — a single-network training set
    does not transfer to an unseen family (measured while tuning the
    smoke config)."""
    spec = DatasetSpec(
        name="smoke-train",
        networks=_NETWORKS,
        platforms=("platinum-8272",),
        candidates_per_task=48,
        shard_size=2048,
        holdout_networks=("mobilenet_v2",),
    )
    root = tmp_path_factory.mktemp("trainer") / "store"
    build_dataset(spec, root)
    return root


def _make_trainer(store, **overrides):
    reader = ShardReader(store)
    emb = reader.manifest.schema.columns()["X"][1][-1]
    model = TLPModel(TLPModelConfig(emb=emb, hidden=48, n_heads=4, n_res_blocks=2))
    kw = dict(epochs=6, batch_size=64, segment_size=16, lr=1e-3)
    kw.update(overrides)
    return model, Trainer(model, reader, TrainConfig(**kw))


@pytest.fixture(scope="module")
def straight(store):
    """One uninterrupted fit — the reference run the resume tests diff
    against, and the source of the loss/top-k acceptance numbers."""
    model, trainer = _make_trainer(store)
    history = trainer.fit()
    report = trainer.evaluate()
    return {
        "digest": _run_digest(model, history),
        "history": history,
        "report": report,
    }


def test_fit_loss_strictly_decreases(straight):
    losses = [row["loss"] for row in straight["history"]]
    assert len(losses) == 6
    assert all(later < earlier for earlier, later in zip(losses, losses[1:])), losses


def test_fit_history_records_cosine_lr(straight):
    lrs = [row["lr"] for row in straight["history"]]
    assert lrs[0] == pytest.approx(1e-3)  # recorded before the epoch's step
    assert all(b < a for a, b in zip(lrs, lrs[1:]))


def test_holdout_top_k_beats_exact_random_baseline(straight):
    """The Table 6/7 criterion on held-out networks: the model's top-k
    picks find faster schedules than randomly sampling k candidates."""
    report = straight["report"]
    for k in (1, 5):
        assert report["top_k"][k] > report["random_top_k"][k], (k, report)
    assert report["top_k"][5] >= report["top_k"][1]
    assert 0 < report["n_groups"] <= report["n_records"]


@pytest.mark.parametrize("stop", [1, 3, 5])
def test_checkpoint_resume_is_bit_identical(store, straight, tmp_path, stop):
    """Kill at any epoch boundary, reload in a fresh process-equivalent
    (new model, new trainer, state from the .npz alone), finish — the
    final weights and full history match the uninterrupted run bit for
    bit."""
    ckpt = tmp_path / "train.npz"
    _, first = _make_trainer(store)
    first.fit(checkpoint_path=ckpt, until=stop)
    assert first.epochs_done == stop

    model_b, resumed = _make_trainer(store)
    resumed.load_checkpoint(ckpt)
    assert resumed.epochs_done == stop
    history = resumed.fit()
    assert _run_digest(model_b, history) == straight["digest"]
    assert history == straight["history"]


def test_fit_with_eval_every_records_top_k(store):
    _, trainer = _make_trainer(store, epochs=2, eval_every=1)
    history = trainer.fit()
    assert all("top_k" in row for row in history)
    assert set(history[0]["top_k"]) == {1, 5}


def test_checkpoint_rejects_foreign_or_truncated_files(store, tmp_path):
    _, trainer = _make_trainer(store)
    good = np.load(trainer.save_checkpoint(tmp_path / "ok.npz"))
    state = {k: good[k] for k in good.files}

    bad = dict(state)
    bad["rogue/key"] = np.zeros(1)
    np.savez(tmp_path / "rogue.npz", **bad)
    with pytest.raises(KeyError, match="unrecognized"):
        trainer.load_checkpoint(tmp_path / "rogue.npz")

    state.pop("meta")
    np.savez(tmp_path / "nometa.npz", **state)
    with pytest.raises(KeyError, match="meta"):
        trainer.load_checkpoint(tmp_path / "nometa.npz")


def test_platform_fractions_carve_the_training_split(store):
    """Table 9 scarce-target carving: each (task, platform) group keeps a
    seeded max(2, round(frac * n)) subset of its training rows."""
    _, full = _make_trainer(store)
    _, scarce = _make_trainer(store, platform_fractions={"platinum-8272": 0.1})
    assert np.all(np.isin(scarce.train_indices, full.train_indices))

    def counts(tr):
        gids = tr._gids[tr.train_indices]
        uniq, n = np.unique(gids, return_counts=True)
        return dict(zip(uniq.tolist(), n.tolist()))

    full_counts, scarce_counts = counts(full), counts(scarce)
    assert set(scarce_counts) == set(full_counts)  # no group vanishes
    for gid, n in full_counts.items():
        assert scarce_counts[gid] == max(2, int(round(0.1 * n)))
    # Seeded: the same config carves the same subset.
    _, again = _make_trainer(store, platform_fractions={"platinum-8272": 0.1})
    assert np.array_equal(again.train_indices, scarce.train_indices)


def test_platform_fractions_unknown_platform_fails_loudly(store):
    with pytest.raises(KeyError, match="t4"):
        _make_trainer(store, platform_fractions={"t4": 0.5})


def test_trainer_validates_model_and_platforms(store):
    reader = ShardReader(store)
    with pytest.raises(ValueError, match="emb"):
        Trainer(TLPModel(TLPModelConfig(emb=7, hidden=32, n_heads=2)), reader)
    with pytest.raises(KeyError, match="graviton2"):
        _make_trainer(store, platforms=("graviton2",))


def test_train_config_validation():
    with pytest.raises(ValueError, match="pairs"):
        TrainConfig(segment_size=1)
    with pytest.raises(ValueError, match="segment_size"):
        TrainConfig(batch_size=8, segment_size=16)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="eval_ks"):
        TrainConfig(eval_ks=(0,))
    with pytest.raises(ValueError, match="fraction"):
        TrainConfig(platform_fractions={"x": 0.0})
    with pytest.raises(ValueError, match="eval_every"):
        TrainConfig(eval_every=-1)


def _poison_nth_gather(trainer, monkeypatch, n):
    """Put a NaN label into the ``n``-th training batch gather."""
    gather = trainer.reader.gather
    calls = {"n": 0}

    def poisoned(rows, columns, out=None):
        result = gather(rows, columns, out=out)
        calls["n"] += 1
        if calls["n"] == n:
            result[columns.index("label")][0] = np.nan
        return result

    monkeypatch.setattr(trainer.reader, "gather", poisoned)


def _state(model, trainer):
    return {**{f"m/{k}": v.copy() for k, v in model.state_dict().items()},
            **{f"o/{k}": v for k, v in trainer.optimizer.state_dict().items()}}


def test_nan_label_raises_named_error_before_the_optimizer_step(store, monkeypatch):
    model, trainer = _make_trainer(store)
    batches = list(trainer.loader.iter_indices())
    _poison_nth_gather(trainer, monkeypatch, 3)
    for idx, gids in batches[:2]:
        trainer.train_step(idx, gids)
    before = _state(model, trainer)

    idx, gids = batches[2]
    with pytest.raises(NonFiniteTrainingError) as err:
        trainer.train_step(idx, gids)
    message = str(err.value)
    assert "non-finite loss nan" in message
    assert "epoch 1, step 3" in message
    n_plat = len(trainer.store_platforms)
    first = int(gids[0])
    assert f"(task {first // n_plat}, platinum-8272)" in message
    after = _state(model, trainer)
    assert before.keys() == after.keys()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_non_finite_gradient_raises_and_names_the_parameter(store, monkeypatch):
    model, trainer = _make_trainer(store, epochs=1)
    backward = Tensor.backward

    def inf_grad(self, grad=None):
        backward(self, grad)
        model.head.bias.grad[0] = np.inf

    monkeypatch.setattr(Tensor, "backward", inf_grad)
    before = _state(model, trainer)
    with pytest.raises(NonFiniteTrainingError, match=r"gradient of head\.bias at epoch 1, step 1"):
        trainer.fit()
    after = _state(model, trainer)
    assert all(np.array_equal(before[k], after[k]) for k in before)
    assert trainer.epochs_done == 0 and trainer.history == []
