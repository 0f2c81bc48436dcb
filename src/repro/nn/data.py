"""Batched, seeded iteration over extractor output or lazy record sources.

:class:`GroupedBatchLoader` packs minibatches of contiguous (task,
platform) segments, the layout lambda-rank training needs
(``repro.core.trainer``).  :class:`BatchLoader` yields flat minibatches
either from in-memory arrays (the ``(X, mask)`` pair
``TLPFeaturizer.transform`` produces, plus optional labels) or from any
*lazily-indexed source* — an object exposing
``__len__`` and ``__getitem__(indices) -> tuple[np.ndarray, ...]`` — such
as ``repro.dataset.ShardReader`` over memory-mapped shards, so an epoch
over a multi-gigabyte store never materializes the store.

Shuffling draws each epoch's permutation from one named
``repro.utils.rng`` stream fixed at construction, so a training run is a
pure function of the stream name and the epoch count — and the epoch
*order* depends only on the source length, not on how the source is
backed: array-backed and shard-backed loaders with the same stream name
visit records in bit-identical order (the reproducibility the
smoke-training and dataset tests pin).
"""

from __future__ import annotations

from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from repro.utils.rng import stream


@runtime_checkable
class RecordSource(Protocol):
    """What :class:`BatchLoader` needs from a lazy source: a length and
    batched fancy indexing returning a tuple of per-batch arrays."""

    def __len__(self) -> int: ...

    def __getitem__(self, indices: np.ndarray) -> tuple[np.ndarray, ...]: ...


class ArraySource:
    """In-memory ``(X, mask[, labels])`` arrays as a :class:`RecordSource`."""

    def __init__(
        self,
        X: np.ndarray,
        mask: np.ndarray,
        labels: np.ndarray | None = None,
    ):
        X = np.asarray(X, dtype=np.float32)
        mask = np.asarray(mask, dtype=np.float32)
        if X.shape[0] != mask.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but mask has {mask.shape[0]}")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.float32).reshape(-1)
            if labels.shape[0] != X.shape[0]:
                raise ValueError(f"X has {X.shape[0]} rows but labels has {labels.shape[0]}")
        self.X = X
        self.mask = mask
        self.labels = labels

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, indices: np.ndarray) -> tuple[np.ndarray, ...]:
        if self.labels is None:
            return self.X[indices], self.mask[indices]
        return self.X[indices], self.mask[indices], self.labels[indices]


class BatchLoader:
    """Minibatch iterator over arrays or a lazily-indexed record source.

    Two construction forms::

        BatchLoader(X, mask[, labels], batch_size=...)   # in-memory arrays
        BatchLoader(source, batch_size=...)              # any RecordSource

    The second form never touches record storage until iteration, and
    then only one batch at a time — ``ShardReader`` memory-maps stay
    on disk.
    """

    def __init__(
        self,
        source: "RecordSource | np.ndarray",
        mask: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        batch_size: int = 32,
        shuffle: bool = True,
        stream_name: str = "nn.data.loader",
        drop_last: bool = False,
    ):
        if mask is not None or isinstance(source, np.ndarray):
            if mask is None:
                raise ValueError("array-backed BatchLoader needs an explicit mask")
            source = ArraySource(source, mask, labels)
        elif labels is not None:
            raise ValueError("labels are part of the source when a RecordSource is given")
        if not isinstance(source, RecordSource):
            raise TypeError(
                f"source must expose __len__ and __getitem__, got {type(source).__name__}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.source = source
        # Back-compat views for array-backed loaders (None for lazy sources).
        self.X = source.X if isinstance(source, ArraySource) else None
        self.mask = source.mask if isinstance(source, ArraySource) else None
        self.labels = source.labels if isinstance(source, ArraySource) else None
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.drop_last = bool(drop_last)
        self._rng = stream(stream_name)

    def __len__(self) -> int:
        n = len(self.source)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, ...]]:
        n = len(self.source)
        if self.shuffle:
            # One permutation per epoch, drawn from the loader's stream:
            # epoch k of a fresh loader with the same stream name sees the
            # same order — whatever backs the source.
            indices = self._rng.permutation(n)
        else:
            indices = np.arange(n)
        # len(self) already accounts for drop_last (floor vs ceil division),
        # so the batch count is the single source of truth here — no
        # separate short-batch guard to fall out of sync with it.
        for b in range(len(self)):
            start = b * self.batch_size
            yield self.source[indices[start : start + self.batch_size]]


class GroupedBatchLoader:
    """Minibatches of contiguous (task, platform) candidate segments.

    Lambda-rank only compares candidates *within* one group, so batches
    are packed from per-group segments rather than a flat permutation:
    each epoch every group's rows are shuffled and chunked into segments
    of at most ``segment_size`` rows, the segments are shuffled globally,
    and whole segments are packed greedily into batches of at most
    ``batch_size`` rows.  Rows of one group always end up contiguous
    within a batch (segments of the same group that meet in a batch are
    merged by a stable sort), which is the layout
    ``lambda_rank_loss_grouped`` requires.

    Epoch ``k`` draws from the derived stream ``f"{name}.epoch{k}"``, so
    the loader's entire iteration state is the epoch counter: resuming a
    run at an epoch boundary means restoring one integer
    (:meth:`state_dict` / :meth:`load_state_dict`), after which epoch
    ``k`` of the resumed loader is bit-identical to epoch ``k`` of an
    uninterrupted one.  The counter advances only when an epoch is fully
    consumed.
    """

    def __init__(
        self,
        source: RecordSource,
        group_ids: np.ndarray,
        *,
        batch_size: int = 128,
        segment_size: int = 32,
        stream_name: str = "nn.data.grouped",
    ):
        if not isinstance(source, RecordSource):
            raise TypeError(
                f"source must expose __len__ and __getitem__, got {type(source).__name__}"
            )
        gids = np.asarray(group_ids, dtype=np.int64).reshape(-1)
        if gids.shape[0] != len(source):
            raise ValueError(
                f"group_ids has {gids.shape[0]} rows but source has {len(source)}"
            )
        if segment_size < 1:
            raise ValueError(f"segment_size must be >= 1, got {segment_size}")
        if batch_size < segment_size:
            raise ValueError(
                f"batch_size {batch_size} < segment_size {segment_size}: "
                "a full segment must fit in one batch"
            )
        self.source = source
        self.group_ids = gids
        self.batch_size = int(batch_size)
        self.segment_size = int(segment_size)
        self.stream_name = str(stream_name)
        self.epoch = 0
        # Row positions per group, computed once: stable sort keeps the
        # within-group row order deterministic.
        order = np.argsort(gids, kind="stable")
        uniq, starts = np.unique(gids[order], return_index=True)
        ends = np.append(starts[1:], order.shape[0])
        self._groups = [
            (int(g), order[s:e]) for g, s, e in zip(uniq, starts, ends)
        ]

    def iter_indices(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(row_indices, group_ids)`` pairs for one epoch.

        Both arrays are int64 and row-aligned; rows of one group are
        contiguous.  Consuming the full epoch advances the epoch counter.
        """
        gen = stream(f"{self.stream_name}.epoch{self.epoch}")
        # Draw order is fixed — one permutation per group in ascending
        # group-id order, then the segment shuffle — so the epoch is a
        # pure function of (stream name, epoch number).
        segments: list[tuple[int, np.ndarray]] = []
        for gid, rows in self._groups:
            perm = rows[gen.permutation(rows.shape[0])]
            for s in range(0, perm.shape[0], self.segment_size):
                segments.append((gid, perm[s : s + self.segment_size]))
        seg_order = gen.permutation(len(segments))

        pending: list[tuple[int, np.ndarray]] = []
        count = 0
        for si in seg_order:
            gid, seg = segments[si]
            if count and count + seg.shape[0] > self.batch_size:
                yield self._emit(pending)
                pending, count = [], 0
            pending.append((gid, seg))
            count += seg.shape[0]
        if pending:
            yield self._emit(pending)
        self.epoch += 1

    @staticmethod
    def _emit(pending: list[tuple[int, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
        idx = np.concatenate([seg for _, seg in pending])
        gids = np.concatenate(
            [np.full(seg.shape[0], gid, dtype=np.int64) for gid, seg in pending]
        )
        # Same-group segments packed into one batch merge into a single
        # contiguous run; stable sort preserves within-segment order.
        order = np.argsort(gids, kind="stable")
        return idx[order].astype(np.int64), gids[order]

    def __iter__(self) -> Iterator[tuple[np.ndarray, ...]]:
        for idx, gids in self.iter_indices():
            yield (*self.source[idx], gids)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {"epoch": np.int64(self.epoch).reshape(())}

    def check_state_dict(self, state: dict[str, np.ndarray]) -> None:
        epoch = int(np.asarray(state["epoch"]))
        if epoch < 0:
            raise ValueError(f"negative loader epoch {epoch}")

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.check_state_dict(state)
        self.epoch = int(np.asarray(state["epoch"]))


__all__ = ["ArraySource", "BatchLoader", "GroupedBatchLoader", "RecordSource"]
