"""Offline lambda-rank training over a shard store, with exact resume.

The paper's protocol (after TenSet): build a dataset offline, train the
cost model with a ranking loss over ``min_latency / latency`` labels,
and report how good the model's top-k picks are on *held-out networks*
(Table 6/7).  This module is that loop for any store
``repro.dataset.build_dataset`` wrote:

* :class:`Trainer` streams grouped (task, platform) minibatches from a
  :class:`~repro.dataset.reader.ShardReader` through
  :class:`~repro.nn.data.GroupedBatchLoader`, trains with
  :func:`~repro.nn.losses.lambda_rank_loss_grouped`, and evaluates
  held-out top-1/top-5 via :mod:`repro.core.metrics` against the store's
  simhw ground-truth latencies.
* Checkpoints are one ``.npz`` holding model + optimizer + scheduler +
  loader stream state, loaded all or nothing; because every random
  draw comes from named ``repro.utils.rng`` streams (loader epochs from
  per-epoch derived streams), a run resumed at any epoch boundary is
  *bit-identical* to an uninterrupted one — pinned by test.
* Both model variants train through the same loop: a plain
  :class:`~repro.core.tlp_model.TLPModel`, or a
  :class:`~repro.core.mtl.MTLTLPModel` whose batches mix platforms
  (``TrainConfig.platforms`` / ``platform_fractions`` carve out the
  Table 9 scarce-target + auxiliary-platform experiments).

Throughput: ``train_step`` gathers X, mask and label into
``ScratchArena``-pooled buffers, so a steady-state gather allocates
nothing.  Reusing the mask buffer is safe because the attention layer's
``MaskBiasCache`` recomputes the bias from the mask's contents on every
call.

Bad numbers fail loudly: a non-finite loss or parameter gradient raises
:class:`NonFiniteTrainingError` before the optimizer step, naming the
epoch, the step within it and the batch's (task, platform) groups, with
the weights and optimizer state left as they were.

``python -m repro.core.trainer`` is the ``make smoke-train`` entry:
tiny spec -> build -> 3-epoch train -> top-k eval, twice, asserting a
bit-identical run digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.metrics import random_top_k_scores_grouped, top_k_scores_grouped
from repro.core.mtl import MTLTLPModel
from repro.core.tlp_model import TLPModel
from repro.dataset.reader import ShardReader
from repro.nn import functional as F
from repro.nn.data import GroupedBatchLoader
from repro.nn.losses import lambda_rank_loss_grouped
from repro.nn.module import read_archive, write_archive
from repro.nn.optim import Adam, CosineLR
from repro.utils.rng import stream

#: Target rows per evaluation gather (grown to the next group boundary).
_EVAL_CHUNK_ROWS = 2048


class NonFiniteTrainingError(FloatingPointError):
    """A training step produced a NaN or infinite loss or gradient."""


@dataclass(frozen=True)
class TrainConfig:
    """One training run, fully determined (with the store) by its fields.

    ``platforms`` restricts training/evaluation to a subset of the
    store's platforms (default: the model's platforms for MTL, all store
    platforms otherwise).  ``platform_fractions`` keeps only a seeded
    fraction of each named platform's *training* records — the Table 9
    scarce-target setup: a small target fraction plus a full-size
    auxiliary platform.
    """

    epochs: int = 10
    batch_size: int = 128
    segment_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.0
    sigma: float = 1.0
    min_lr: "float | None" = None
    eval_every: int = 0
    eval_ks: tuple[int, ...] = (1, 5)
    stream_name: str = "core.trainer"
    platforms: "tuple[str, ...] | None" = None
    platform_fractions: "dict[str, float] | None" = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.segment_size < 2:
            raise ValueError(
                f"segment_size must be >= 2 (ranking needs pairs), "
                f"got {self.segment_size}"
            )
        if self.batch_size < self.segment_size:
            raise ValueError(
                f"batch_size {self.batch_size} < segment_size {self.segment_size}"
            )
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        for k in self.eval_ks:
            if k < 1:
                raise ValueError(f"eval_ks entries must be >= 1, got {k}")
        if self.platform_fractions:
            for name, frac in self.platform_fractions.items():
                if not 0.0 < frac <= 1.0:
                    raise ValueError(
                        f"platform fraction for {name!r} must be in (0, 1], got {frac}"
                    )


class Trainer:
    """Streamed lambda-rank training of a TLP / MTL-TLP model on a store."""

    def __init__(
        self,
        model: "TLPModel | MTLTLPModel",
        reader: ShardReader,
        config: TrainConfig | None = None,
    ):
        self.model = model
        self.reader = reader
        self.config = config if config is not None else TrainConfig()
        self.is_mtl = isinstance(model, MTLTLPModel)

        schema_cols = reader.manifest.schema.columns()
        self._x_trailing = tuple(schema_cols["X"][1])
        self._mask_trailing = tuple(schema_cols["mask"][1])
        emb = self._x_trailing[-1]
        if model.config.emb != emb:
            raise ValueError(
                f"model emb {model.config.emb} != store feature width {emb}"
            )

        self.store_platforms = tuple(reader.manifest.spec.platforms)
        default = model.platforms if self.is_mtl else self.store_platforms
        names = tuple(self.config.platforms) if self.config.platforms else default
        for name in names:
            if name not in self.store_platforms:
                raise KeyError(
                    f"platform {name!r} not in store platforms {self.store_platforms}"
                )
        if self.is_mtl:
            for name in names:
                model.head_index(name)  # raises on a platform with no head
        self.platforms = names

        task_ids = reader.task_ids().astype(np.int64)
        plat_ids = reader.platform_ids().astype(np.int64)
        self._plat_ids = plat_ids
        n_plat = len(self.store_platforms)
        #: One ranking group per (task, platform) pair, store-wide.
        self._gids = task_ids * n_plat + plat_ids
        if self.is_mtl:
            head_of = np.full(n_plat, -1, dtype=np.int64)
            for name in names:
                head_of[self.store_platforms.index(name)] = model.head_index(name)
            self._head_of_pid = head_of

        allowed_pids = np.asarray(
            [self.store_platforms.index(n) for n in names], dtype=np.int64
        )
        allowed = np.isin(plat_ids, allowed_pids)
        train_idx = reader.split_indices("train")
        train_idx = train_idx[allowed[train_idx]]
        train_idx = self._subsample(train_idx)
        if train_idx.size == 0:
            raise ValueError("no training records after platform filtering")
        self.train_indices = train_idx
        holdout_idx = reader.split_indices("holdout")
        self.holdout_indices = holdout_idx[allowed[holdout_idx]]

        self.loader = GroupedBatchLoader(
            reader.subset(train_idx),
            self._gids[train_idx],
            batch_size=self.config.batch_size,
            segment_size=self.config.segment_size,
            stream_name=f"{self.config.stream_name}.loader",
        )
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.lr,
            weight_decay=self.config.weight_decay,
        )
        self.scheduler = CosineLR(
            self.optimizer, self.config.epochs, self.config.min_lr
        )
        self._arena = F.ScratchArena()
        self.history: list[dict] = []
        self.epochs_done = 0
        #: Steps taken in the current epoch (``train_epoch`` resets it).
        self.epoch_step = 0

    # -- dataset carving -------------------------------------------------

    def _subsample(self, train_idx: np.ndarray) -> np.ndarray:
        """Seeded per-(task, platform) subsampling for scarce-target runs.

        Groups are visited in ascending group-id order with one draw
        each from the ``.subsample`` derived stream, so the kept subset
        is a pure function of (stream name, store) — independent of
        platform dict ordering.
        """
        fracs = self.config.platform_fractions
        if not fracs:
            return train_idx
        for name in fracs:
            if name not in self.platforms:
                raise KeyError(
                    f"platform_fractions names {name!r}, not one of {self.platforms}"
                )
        gen = stream(f"{self.config.stream_name}.subsample")
        order = np.argsort(self._gids[train_idx], kind="stable")
        sorted_idx = train_idx[order]
        sorted_gids = self._gids[sorted_idx]
        starts = np.flatnonzero(np.diff(sorted_gids) != 0) + 1
        bounds = np.concatenate(([0], starts, [sorted_gids.shape[0]]))
        kept: list[np.ndarray] = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            rows = sorted_idx[a:b]
            name = self.store_platforms[int(self._plat_ids[rows[0]])]
            frac = fracs.get(name, 1.0)
            if frac >= 1.0:
                kept.append(rows)
                continue
            # Keep at least 2 rows so the group still contributes pairs.
            k = max(2, int(round(frac * rows.shape[0])))
            pick = np.sort(gen.permutation(rows.shape[0])[:k])
            kept.append(rows[pick])
        return np.sort(np.concatenate(kept))

    # -- training --------------------------------------------------------

    def _forward(self, X, mask, global_idx) -> "object":
        if self.is_mtl:
            head_ids = self._head_of_pid[self._plat_ids[global_idx]]
            return self.model.forward(X, mask, head_ids)
        return self.model.forward(X, mask)

    def train_step(self, idx: np.ndarray, gids: np.ndarray) -> float:
        """One optimizer step on one packed batch; returns the loss.

        ``idx`` are positions into ``train_indices`` (what
        ``loader.iter_indices`` yields).  X, mask and label land in
        pooled arena buffers — zero steady-state gather allocations.
        Raises :class:`NonFiniteTrainingError`, before the optimizer
        touches any state, if the loss or a parameter gradient is NaN
        or infinite.
        """
        self.epoch_step += 1
        global_idx = self.train_indices[idx]
        n = int(idx.shape[0])
        arena = self._arena
        X_buf = arena.take("train.X", (n, *self._x_trailing))
        mask_buf = arena.take("train.mask", (n, *self._mask_trailing))
        label_buf = arena.take("train.label", (n,))
        X, mask, label = self.reader.gather(
            global_idx, ("X", "mask", "label"), out=(X_buf, mask_buf, label_buf)
        )
        pred = self._forward(X, mask, global_idx)
        loss = lambda_rank_loss_grouped(pred, label, gids, self.config.sigma)
        if not np.isfinite(loss.data).all():
            self._non_finite(f"loss {float(loss.data)}", gids)
        self.optimizer.zero_grad()
        loss.backward()
        for name, param in self.model.named_parameters():
            if param.grad is not None and not np.isfinite(param.grad).all():
                self._non_finite(f"gradient of {name}", gids)
        self.optimizer.step()
        return float(loss.data)

    def _non_finite(self, what: str, gids: np.ndarray) -> None:
        n_plat = len(self.store_platforms)
        groups = ", ".join(
            f"(task {gid // n_plat}, {self.store_platforms[gid % n_plat]})"
            for gid in dict.fromkeys(int(g) for g in gids)
        )
        raise NonFiniteTrainingError(
            f"non-finite {what} at epoch {self.epochs_done + 1}, step "
            f"{self.epoch_step}; batch groups: {groups}. The optimizer step "
            f"was skipped, so weights and optimizer state are unchanged."
        )

    def train_epoch(self) -> float:
        """One full pass over the training split; returns the mean loss."""
        self.model.train()
        self.epoch_step = 0
        losses = [
            self.train_step(idx, gids) for idx, gids in self.loader.iter_indices()
        ]
        return float(np.mean(losses))

    def fit(
        self,
        checkpoint_path: "Path | str | None" = None,
        until: "int | None" = None,
    ) -> list[dict]:
        """Train to ``config.epochs``, appending one history row per epoch.

        With ``checkpoint_path`` the full training state is rewritten
        after every epoch, so a killed run resumes exactly where it
        stopped (:meth:`load_checkpoint` + ``fit`` again); ``until``
        stops early at an epoch boundary (same effect as a kill, but
        polite).  Returns the history: ``{"epoch", "loss", "lr"}`` rows
        plus ``"top_k"`` on evaluation epochs (``config.eval_every``,
        and always the last).
        """
        cfg = self.config
        target = cfg.epochs if until is None else min(int(until), cfg.epochs)
        while self.epochs_done < target:
            lr = self.optimizer.lr
            mean_loss = self.train_epoch()
            self.epochs_done += 1
            self.scheduler.step()
            entry: dict = {"epoch": self.epochs_done, "loss": mean_loss, "lr": lr}
            last = self.epochs_done == cfg.epochs
            if cfg.eval_every and (last or self.epochs_done % cfg.eval_every == 0):
                entry["top_k"] = self.evaluate()["top_k"]
            self.history.append(entry)
            if checkpoint_path is not None:
                self.save_checkpoint(checkpoint_path)
        return self.history

    # -- evaluation ------------------------------------------------------

    def evaluate(
        self,
        ks: "tuple[int, ...] | None" = None,
        platforms: "tuple[str, ...] | None" = None,
    ) -> dict:
        """Held-out-network top-k scores vs the exact random baseline.

        Scores every (task, platform) group of the holdout split with
        the model's tape-free path, group-aligned chunk by chunk, and
        reports the mean top-k best-found latency ratio per k plus the
        matching closed-form random baseline.
        """
        ks = tuple(ks) if ks is not None else self.config.eval_ks
        idx = self.holdout_indices
        if platforms is not None:
            pids = np.asarray(
                [self.store_platforms.index(n) for n in platforms], dtype=np.int64
            )
            idx = idx[np.isin(self._plat_ids[idx], pids)]
        if idx.size == 0:
            raise ValueError("no holdout records to evaluate")
        idx = idx[np.argsort(self._gids[idx], kind="stable")]
        gids = self._gids[idx]

        starts = np.flatnonzero(np.diff(gids) != 0) + 1
        bounds = np.concatenate(([0], starts, [gids.shape[0]]))
        scores = np.empty(idx.shape[0], dtype=np.float32)
        lats = np.empty(idx.shape[0], dtype=np.float32)
        # Gather whole groups at a time, coalesced up to the chunk target.
        chunk_start = 0
        for bi in range(1, bounds.shape[0]):
            end = int(bounds[bi])
            if end - chunk_start < _EVAL_CHUNK_ROWS and bi < bounds.shape[0] - 1:
                continue
            rows = idx[chunk_start:end]
            X, mask, lat = self.reader.gather(rows, ("X", "mask", "latency"))
            if self.is_mtl:
                s = self.model.predict(X, mask, self._head_of_pid[self._plat_ids[rows]])
            else:
                s = self.model.predict(X, mask)
            scores[chunk_start:end] = s
            lats[chunk_start:end] = lat
            chunk_start = end

        return {
            "top_k": top_k_scores_grouped(scores, lats, gids, ks),
            "random_top_k": random_top_k_scores_grouped(lats, gids, ks),
            "n_groups": int(bounds.shape[0] - 1),
            "n_records": int(idx.shape[0]),
        }

    # -- checkpointing ---------------------------------------------------

    def save_checkpoint(self, path: "Path | str") -> Path:
        """Write the complete training state as one ``.npz``.

        Model, optimizer, scheduler, and loader state plus a JSON meta
        record (epochs done, history) — everything a fresh Trainer on
        the same store needs to continue bit-identically.
        """
        path = Path(path)
        state: dict[str, np.ndarray] = {}
        for name, arr in self.model.state_dict().items():
            state[f"model/{name}"] = arr
        for name, arr in self.optimizer.state_dict().items():
            state[f"optim/{name}"] = arr
        for name, arr in self.scheduler.state_dict().items():
            state[f"sched/{name}"] = arr
        for name, arr in self.loader.state_dict().items():
            state[f"loader/{name}"] = arr
        meta = json.dumps(
            {"epochs_done": self.epochs_done, "history": self.history},
            sort_keys=True,
        )
        state["meta"] = np.asarray(meta)
        return write_archive(path, state)  # atomic: never truncates the last good one

    def load_checkpoint(self, path: "Path | str") -> None:
        """Restore a :meth:`save_checkpoint` snapshot into this trainer.

        All or nothing: the meta record and every group (model,
        optimizer, scheduler, loader) are validated before any is
        assigned, so a rejected checkpoint leaves the trainer as it was.
        A file that is not a readable ``.npz`` archive (truncated,
        corrupted, not an archive) raises
        :class:`~repro.nn.module.CheckpointError` naming it.
        """
        arrays = read_archive(Path(path))
        groups: dict[str, dict[str, np.ndarray]] = {
            "model": {}, "optim": {}, "sched": {}, "loader": {}
        }
        for key, arr in arrays.items():
            if key == "meta":
                continue
            prefix, _, name = key.partition("/")
            if prefix not in groups or not name:
                raise KeyError(f"unrecognized checkpoint key {key!r}")
            groups[prefix][name] = arr
        if "meta" not in arrays:
            raise KeyError("checkpoint has no meta record")
        meta = json.loads(str(arrays["meta"][()]))
        epochs_done, history = int(meta["epochs_done"]), list(meta["history"])
        parts = ((self.model, groups["model"]), (self.optimizer, groups["optim"]),
                 (self.scheduler, groups["sched"]), (self.loader, groups["loader"]))
        for part, state in parts:
            part.check_state_dict(state)
        for part, state in parts:
            part.load_state_dict(state)
        self.epochs_done = epochs_done
        self.history = history


def _run_digest(model: "TLPModel | MTLTLPModel", history: list[dict]) -> str:
    """SHA-256 over final weights + history — one value pins a whole run."""
    import hashlib

    h = hashlib.sha256()
    for name, arr in sorted(model.state_dict().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(json.dumps(history, sort_keys=True).encode())
    return h.hexdigest()


def main() -> int:
    """``make smoke-train``: tiny store -> 3-epoch train -> top-k eval, twice.

    Asserts the two from-scratch runs are bit-identical (weights and
    history), the loss decreased, and held-out top-5 beats the exact
    random baseline.
    """
    import tempfile

    from repro.core.tlp_model import TLPModelConfig
    from repro.dataset.pipeline import build_dataset
    from repro.dataset.spec import DatasetSpec

    # All five network pools: holdout transfer needs training diversity —
    # a model trained on one network family does not rank an unseen
    # family better than random (measured, not assumed).
    spec = DatasetSpec(
        name="smoke-train",
        networks=("bert_tiny", "resnet18", "resnet50", "bert_base",
                  "mobilenet_v2"),
        platforms=("platinum-8272",),
        candidates_per_task=48,
        shard_size=2048,
        holdout_networks=("mobilenet_v2",),
    )
    with tempfile.TemporaryDirectory(prefix="repro-smoke-train-") as tmp:
        store = Path(tmp) / "store"
        manifest = build_dataset(spec, store)
        print(f"store: {manifest.total_records} records, "
              f"{len(manifest.shards)} shards")

        def run() -> tuple[str, list[dict], dict]:
            reader = ShardReader(store)
            emb = reader.manifest.schema.columns()["X"][1][-1]
            model = TLPModel(TLPModelConfig(emb=emb, hidden=48, n_heads=4,
                                            n_res_blocks=2))
            trainer = Trainer(model, reader, TrainConfig(
                epochs=6, batch_size=64, segment_size=16, lr=1e-3,
            ))
            history = trainer.fit()
            report = trainer.evaluate()
            return _run_digest(model, history), history, report

        digest_a, history, report = run()
        digest_b, _, _ = run()

    losses = [row["loss"] for row in history]
    assert digest_a == digest_b, f"non-deterministic run: {digest_a} != {digest_b}"
    assert losses[-1] < losses[0], f"loss did not decrease: {losses}"
    top5, rand5 = report["top_k"][5], report["random_top_k"][5]
    assert top5 > rand5, f"holdout top-5 {top5} <= random {rand5}"
    print(json.dumps({
        "digest": digest_a,
        "losses": [round(x, 6) for x in losses],
        "holdout_top_k": {str(k): round(v, 4) for k, v in report["top_k"].items()},
        "random_top_k": {
            str(k): round(v, 4) for k, v in report["random_top_k"].items()
        },
        "n_groups": report["n_groups"],
    }, indent=2))
    print("smoke-train OK")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())


__all__ = ["NonFiniteTrainingError", "TrainConfig", "Trainer"]
