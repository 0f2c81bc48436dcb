"""Deterministic simulated-hardware latency substrate (DESIGN.md §3).

Stands in for the TenSet measurement farm: ``measure`` prices an applied
schedule on one of 7 simulated platforms (5 CPU-like, 2 GPU-like) as a
pure function of (subgraph, primitive sequence, platform, root seed), so
dataset labels are bit-reproducible and free.  ``measure_many`` is the
vectorized batch path used to label training corpora.
"""

from repro.simhw.measure import (
    LatencyRecord,
    extract_features,
    labels_from_latencies,
    measure,
    measure_many,
    quirk_multipliers,
)
from repro.simhw.platform import (
    ALL_PLATFORMS,
    CPU_PLATFORMS,
    GPU_PLATFORMS,
    ISA_FAMILIES,
    PLATFORMS,
    Platform,
    get_platform,
)

__all__ = [
    "ALL_PLATFORMS",
    "CPU_PLATFORMS",
    "GPU_PLATFORMS",
    "ISA_FAMILIES",
    "LatencyRecord",
    "PLATFORMS",
    "Platform",
    "extract_features",
    "get_platform",
    "labels_from_latencies",
    "measure",
    "measure_many",
    "quirk_multipliers",
]
