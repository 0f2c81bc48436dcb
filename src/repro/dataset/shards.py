"""Columnar, memory-mappable shard storage for dataset records.

A *shard* is one directory of plain ``.npy`` files — one per column, all
with the same leading record count — so a reader can ``np.load(...,
mmap_mode="r")`` any column without copying (``.npz`` zip archives
cannot be memory-mapped, which is why shards are directories).  Shards
are fixed-size (``DatasetSpec.shard_size``) except the final remainder,
and named ``shard-00000``, ``shard-00001``, ... in row order.

Crash discipline: a shard is staged in a ``*.tmp`` directory and
``os.replace``-renamed into place only when every column is fully
written, so a shard directory either exists completely or not at all;
any ``*.tmp`` litter is a crashed write and is safe to delete.  Each
shard's SHA-256 digest (column bytes, in :data:`COLUMN_NAMES` order)
goes into the manifest, making "is this store exactly what (spec, seed)
says" a cheap question.

The writer is the single-pass hot path: per-column buffers are allocated
once at ``shard_size`` and rewritten for every shard, so peak memory is
one shard regardless of dataset size.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

SHARD_PREFIX = "shard-"
TMP_SUFFIX = ".tmp"

#: Column order is part of the on-disk format: digests hash column bytes
#: in this order, so reordering breaks every recorded digest.
COLUMN_NAMES: tuple[str, ...] = (
    "X",            # float32 [n, seq_len, emb]   — TLPFeaturizer planes
    "mask",         # float32 [n, seq_len]        — sequence-length mask
    "static",       # float32 [n, static_width]   — absint StaticProfile plane
    "latency",      # float32 [n]                 — simulated seconds
    "label",        # float32 [n]                 — min_latency/latency per task
    "task_id",      # int32   [n]                 — index into manifest tasks
    "platform_id",  # int16   [n]                 — index into spec platforms
    "candidate",    # int32   [n]                 — position in the task batch
    "seed",         # uint64  [n]                 — candidate-stream seed (provenance)
)


@dataclass(frozen=True)
class ShardSchema:
    """Record geometry: fixes every column's dtype and trailing shape."""

    seq_len: int
    emb: int
    static_width: int

    def columns(self) -> dict[str, tuple[np.dtype, tuple[int, ...]]]:
        return {
            "X": (np.dtype(np.float32), (self.seq_len, self.emb)),
            "mask": (np.dtype(np.float32), (self.seq_len,)),
            "static": (np.dtype(np.float32), (self.static_width,)),
            "latency": (np.dtype(np.float32), ()),
            "label": (np.dtype(np.float32), ()),
            "task_id": (np.dtype(np.int32), ()),
            "platform_id": (np.dtype(np.int16), ()),
            "candidate": (np.dtype(np.int32), ()),
            "seed": (np.dtype(np.uint64), ()),
        }

    def to_dict(self) -> dict:
        return {"seq_len": self.seq_len, "emb": self.emb, "static_width": self.static_width}

    @classmethod
    def from_dict(cls, d: dict) -> "ShardSchema":
        return cls(int(d["seq_len"]), int(d["emb"]), int(d["static_width"]))


def shard_name(index: int) -> str:
    return f"{SHARD_PREFIX}{index:05d}"


def shard_dir(store_dir: Path, index: int) -> Path:
    return Path(store_dir) / shard_name(index)


def clean_tmp_dirs(store_dir: Path) -> int:
    """Delete crashed staging directories; returns how many were removed."""
    removed = 0
    for path in sorted(Path(store_dir).glob(f"{SHARD_PREFIX}*{TMP_SUFFIX}")):
        shutil.rmtree(path)
        removed += 1
    return removed


def _column_digest(columns: Mapping[str, np.ndarray], n: int) -> str:
    digest = hashlib.sha256()
    for name in COLUMN_NAMES:
        # hashlib reads the contiguous column's buffer: no bytes copy.
        digest.update(np.ascontiguousarray(columns[name][:n]))
    return digest.hexdigest()


def load_shard_column(
    store_dir: Path, index: int, name: str, *, mmap: bool = True
) -> np.ndarray:
    """One shard column, memory-mapped read-only by default."""
    path = shard_dir(store_dir, index) / f"{name}.npy"
    return np.load(path, mmap_mode="r" if mmap else None)


def verify_shard(
    store_dir: Path,
    index: int,
    n_records: int,
    expected_digest: str,
    schema: ShardSchema,
    *,
    level: str = "shape",
) -> bool:
    """Is a completed shard actually on disk and intact?

    ``level="shape"`` reads only the ``.npy`` headers (shape + dtype per
    column) — constant-time, the resume default.  ``level="digest"``
    re-hashes every byte against the manifest digest — what the
    crash-resume tests use.
    """
    if level not in ("shape", "digest"):
        raise ValueError(f"unknown verify level {level!r}, expected 'shape' or 'digest'")
    path = shard_dir(store_dir, index)
    if not path.is_dir():
        return False
    spec_cols = schema.columns()
    loaded: dict[str, np.ndarray] = {}
    for name in COLUMN_NAMES:
        dtype, trailing = spec_cols[name]
        try:
            arr = np.load(path / f"{name}.npy", mmap_mode="r")
        except (OSError, ValueError):
            return False
        if arr.dtype != dtype or arr.shape != (n_records, *trailing):
            return False
        loaded[name] = arr
    if level == "digest":
        return _column_digest(loaded, n_records) == expected_digest
    return True


class ShardWriter:
    """Streams record rows into fixed-size shards with flat peak memory.

    ``append`` copies rows into preallocated per-column buffers and
    flushes a shard every time they fill; ``finalize`` flushes the
    remainder.  After each completed shard the ``on_shard`` callback
    receives ``(index, n_records, digest)`` — the pipeline uses it to
    journal progress into the manifest, and may raise to stop the build
    at a shard boundary (the shard itself is already durable).
    """

    def __init__(
        self,
        store_dir: Path,
        schema: ShardSchema,
        shard_size: int,
        *,
        start_index: int = 0,
        on_shard: "Callable[[int, int, str], None] | None" = None,
    ):
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.store_dir = Path(store_dir)
        self.schema = schema
        self.shard_size = int(shard_size)
        self.next_index = int(start_index)
        self.on_shard = on_shard
        self._fill = 0
        self._finalized = False
        self._buffers: dict[str, np.ndarray] = {
            name: np.empty((shard_size, *trailing), dtype=dtype)
            for name, (dtype, trailing) in schema.columns().items()
        }

    @property
    def fill(self) -> int:
        return self._fill

    def append(self, columns: Mapping[str, np.ndarray]) -> None:
        """Append a block of rows (dict of equal-length column arrays)."""
        if self._finalized:
            raise RuntimeError("ShardWriter.append after finalize()")
        missing = [c for c in COLUMN_NAMES if c not in columns]
        if missing:
            raise ValueError(f"append missing columns: {missing}")
        n = len(columns["X"])
        for name in COLUMN_NAMES:
            if len(columns[name]) != n:
                raise ValueError(
                    f"column {name!r} has {len(columns[name])} rows, expected {n}"
                )
        offset = 0
        while offset < n:
            take = min(self.shard_size - self._fill, n - offset)
            lo, hi = self._fill, self._fill + take
            for name in COLUMN_NAMES:
                self._buffers[name][lo:hi] = columns[name][offset : offset + take]
            self._fill += take
            offset += take
            if self._fill == self.shard_size:
                self._flush()

    def finalize(self) -> None:
        """Flush any partial final shard and close the writer."""
        if self._finalized:
            return
        if self._fill:
            self._flush()
        self._finalized = True

    def _flush(self) -> None:
        n, index = self._fill, self.next_index
        final = shard_dir(self.store_dir, index)
        staging = final.with_name(final.name + TMP_SUFFIX)
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        for name in COLUMN_NAMES:
            np.save(staging / f"{name}.npy", self._buffers[name][:n])
        digest = _column_digest(self._buffers, n)
        if final.exists():
            shutil.rmtree(final)  # stale leftover from an unjournaled crash
        os.replace(staging, final)
        self._fill = 0
        self.next_index = index + 1
        if self.on_shard is not None:
            self.on_shard(index, n, digest)


__all__ = [
    "COLUMN_NAMES",
    "ShardSchema",
    "ShardWriter",
    "clean_tmp_dirs",
    "load_shard_column",
    "shard_dir",
    "shard_name",
    "verify_shard",
]
