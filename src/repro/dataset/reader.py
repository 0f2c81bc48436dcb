"""Zero-copy reading of a shard store for training.

:class:`ShardReader` memory-maps shard columns on first touch and
implements the ``repro.nn.data.RecordSource`` protocol — ``__len__``
plus batched ``__getitem__(indices) -> (X, mask, label)`` — so a
loader over it (the trainer's ``GroupedBatchLoader``) iterates a
multi-gigabyte store one minibatch at a time without ever materializing
an epoch.  Gathers copy
exactly the requested rows out of the maps (training mutates nothing in
the store), and round-trip exactness is pinned by test:
``reader[i]``'s planes are bit-identical to the featurizer output the
pipeline wrote.

Network-level holdout comes from the manifest: every record carries its
``task_id``, tasks carry their network, and the spec names the held-out
networks, so :meth:`split_indices` / :meth:`subset` give
loader-compatible train/holdout views without touching the wide columns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.dataset.manifest import Manifest
from repro.dataset.shards import COLUMN_NAMES, load_shard_column

#: What a default gather returns, in order — the loader-facing triple.
DEFAULT_COLUMNS: tuple[str, ...] = ("X", "mask", "label")


class Subset:
    """A record-source view of a reader restricted to fixed global rows."""

    def __init__(self, reader: "ShardReader", indices: np.ndarray):
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        n = len(reader)
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise IndexError(f"subset indices out of range for {n} records")
        self.reader = reader
        self.indices = indices

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def __getitem__(self, indices) -> tuple[np.ndarray, ...]:
        return self.reader[self.indices[np.asarray(indices)]]


class ShardReader:
    """Lazily memory-mapped, batch-indexable view of one shard store."""

    def __init__(self, store_dir: "Path | str", *, columns: Sequence[str] = DEFAULT_COLUMNS):
        self.store_dir = Path(store_dir)
        self.manifest = Manifest.load(self.store_dir)
        unknown = [c for c in columns if c not in COLUMN_NAMES]
        if unknown:
            raise ValueError(f"unknown columns {unknown}; available: {COLUMN_NAMES}")
        self.columns = tuple(columns)
        counts = [s.n_records for s in self.manifest.shards]
        #: Global row offset where each shard starts (+ total at the end).
        self.offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        ) if counts else np.zeros(1, dtype=np.int64)
        self._maps: dict[tuple[int, str], np.ndarray] = {}
        #: Concatenated narrow provenance columns, built once on demand —
        #: repeated split_indices()/task_ids() calls stay O(1) in I/O.
        self._narrow: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return int(self.offsets[-1])

    @property
    def n_shards(self) -> int:
        return len(self.manifest.shards)

    def _column(self, shard: int, name: str) -> np.ndarray:
        key = (shard, name)
        arr = self._maps.get(key)
        if arr is None:
            arr = load_shard_column(self.store_dir, shard, name)
            self._maps[key] = arr
        return arr

    # -- gathering -------------------------------------------------------

    def gather(
        self,
        indices,
        columns: "Sequence[str] | None" = None,
        *,
        out: "Sequence[np.ndarray] | None" = None,
    ) -> tuple[np.ndarray, ...]:
        """Copy the requested rows for each column, preserving order.

        Rows are grouped per shard so each memory map is touched once
        per call; the output order is exactly ``indices`` order, which
        is what keeps ``BatchLoader`` epochs bit-reproducible no matter
        how records landed in shards.

        ``out`` supplies one preallocated destination per column (exact
        shape and dtype required) so a hot training loop can gather into
        ``ScratchArena``-pooled buffers instead of allocating per batch;
        the filled buffers are returned.
        """
        names = self.columns if columns is None else tuple(columns)
        indices = np.asarray(indices)
        if indices.ndim == 0:
            indices = indices.reshape(1)
        indices = indices.astype(np.int64, copy=False)
        n = len(self)
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise IndexError(f"record index out of range for {n} records")
        shard_of = np.searchsorted(self.offsets, indices, side="right") - 1
        schema_cols = self.manifest.schema.columns()
        out_list: list[np.ndarray] = []
        if out is not None and len(out) != len(names):
            raise ValueError(f"out has {len(out)} buffers for {len(names)} columns")
        for col, name in enumerate(names):
            dtype, trailing = schema_cols[name]
            shape = (indices.shape[0], *trailing)
            if out is None:
                out_list.append(np.empty(shape, dtype=dtype))
            else:
                buf = out[col]
                if buf.shape != shape or buf.dtype != np.dtype(dtype):
                    raise ValueError(
                        f"out buffer for {name!r}: got {buf.dtype}{buf.shape}, "
                        f"need {np.dtype(dtype)}{shape}"
                    )
                out_list.append(buf)
        out = out_list
        for shard in np.unique(shard_of):
            where = np.nonzero(shard_of == shard)[0]
            local = indices[where] - self.offsets[shard]
            for col, name in enumerate(names):
                out[col][where] = self._column(int(shard), name)[local]
        return tuple(out)

    def __getitem__(self, indices) -> tuple[np.ndarray, ...]:
        """Batch gather of the reader's default columns (RecordSource)."""
        return self.gather(indices)

    def record(self, index: int) -> dict[str, np.ndarray]:
        """One full record, every column, as a dict (debug/provenance)."""
        values = self.gather(np.asarray([index]), columns=COLUMN_NAMES)
        return {name: value[0] for name, value in zip(COLUMN_NAMES, values)}

    # -- splits ----------------------------------------------------------

    def _narrow_column(self, name: str) -> np.ndarray:
        """Memoized concatenation of one narrow per-record column.

        Built once per reader (one load per shard) and cached; splits,
        grouping and filtering all index into the same array, so
        repeated ``split_indices`` calls are O(1) in shard I/O.
        """
        cached = self._narrow.get(name)
        if cached is None:
            dtype, trailing = self.manifest.schema.columns()[name]
            if trailing:
                raise ValueError(f"{name!r} is not a narrow per-record column")
            if not self.n_shards:
                cached = np.empty(0, dtype=dtype)
            else:
                cached = np.concatenate(
                    [np.asarray(self._column(s, name)) for s in range(self.n_shards)]
                )
            self._narrow[name] = cached
        return cached

    def task_ids(self) -> np.ndarray:
        """Per-record task id (int32 [N]) — memoized; do not mutate."""
        return self._narrow_column("task_id")

    def platform_ids(self) -> np.ndarray:
        """Per-record platform index (int16 [N]) — memoized; do not mutate."""
        return self._narrow_column("platform_id")

    def split_indices(self, split: str) -> np.ndarray:
        """Global record indices of one side of the network-level split."""
        if split not in ("train", "holdout"):
            raise ValueError(f"unknown split {split!r}, expected 'train' or 'holdout'")
        task_split = np.asarray(
            [t["split"] == split for t in self.manifest.tasks], dtype=bool
        )
        return np.nonzero(task_split[self.task_ids()])[0].astype(np.int64)

    def subset(self, indices) -> Subset:
        """A loader-compatible view restricted to the given global rows."""
        return Subset(self, indices)


__all__ = ["DEFAULT_COLUMNS", "ShardReader", "Subset"]
