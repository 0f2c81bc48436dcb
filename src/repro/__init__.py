"""TLP reproduction package.

Subsystems land incrementally (see DESIGN.md §3 for the full inventory).
Currently present:

* ``repro.utils``    — seeded RNG streams, wall-clock timers.
* ``repro.tensorir`` — subgraphs, loop-nest IR, the 11 Ansor-style schedule
  primitive kinds, schedules, sketch rules and a random sampler.
* ``repro.analysis`` — the one interpreter of primitive sequences:
  static verification, static profiles and the loop nest
  ``Schedule.apply()`` returns, without latency simulation; plus a repo
  lint.
* ``repro.core``     — TLP feature extraction: batch-first featurizer over
  primitive sequences (Fig. 4/5) with Table 4 crop/pad, the Fig. 7
  attention cost model and its MTL multi-head variant, the offline
  lambda-rank trainer with exact checkpoint/resume, and the Table 6/7
  top-k evaluation metrics.
* ``repro.nn``       — from-scratch numpy autograd + NN substrate (layers,
  attention, losses, optimizers, gradient checking).
* ``repro.simhw``    — deterministic simulated-hardware latency substrate:
  7 analytical platform models (5 CPU, 2 GPU) standing in for the TenSet
  measurement farm.
* ``repro.dataset``  — TenSet-scale streaming dataset factory: network-pool
  specs to columnar memory-mapped shard stores with a resumable manifest,
  plus the ``ShardReader`` training view.
"""

from __future__ import annotations

__version__ = "0.1.0"

from repro.analysis import (
    Diagnostic,
    InvalidScheduleError,
    Severity,
    verify_many,
    verify_schedule,
    verify_sequence,
)
from repro.core import (
    MTLTLPModel,
    PostprocessConfig,
    TLPFeaturizer,
    TLPModel,
    TLPModelConfig,
    TrainConfig,
    Trainer,
)
from repro.dataset import DatasetSpec, Manifest, ShardReader, build_dataset
from repro.simhw import (
    ALL_PLATFORMS,
    LatencyRecord,
    Platform,
    get_platform,
    labels_from_latencies,
    measure,
    measure_many,
)
from repro.tensorir import (
    Axis,
    Loop,
    LoopKind,
    LoopNest,
    Primitive,
    PrimitiveKind,
    Schedule,
    ScheduleError,
    ScheduleSampler,
    SketchConfig,
    SketchGenerator,
    Subgraph,
)

__all__ = [
    "__version__",
    "ALL_PLATFORMS",
    "Axis",
    "DatasetSpec",
    "Diagnostic",
    "InvalidScheduleError",
    "LatencyRecord",
    "Loop",
    "LoopKind",
    "LoopNest",
    "MTLTLPModel",
    "Manifest",
    "Platform",
    "PostprocessConfig",
    "Primitive",
    "PrimitiveKind",
    "Schedule",
    "ScheduleError",
    "ScheduleSampler",
    "Severity",
    "ShardReader",
    "SketchConfig",
    "SketchGenerator",
    "Subgraph",
    "TLPFeaturizer",
    "TLPModel",
    "TLPModelConfig",
    "TrainConfig",
    "Trainer",
    "build_dataset",
    "get_platform",
    "labels_from_latencies",
    "measure",
    "measure_many",
    "verify_many",
    "verify_schedule",
    "verify_sequence",
]
