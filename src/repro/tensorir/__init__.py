"""Tensor-program IR: subgraphs, loop nests, schedule primitives, sampling.

The TVM/Ansor substitute (DESIGN.md §2): computational subgraphs expose an
iteration domain, schedule primitives transform it, ``Schedule.apply()``
produces a loop nest for the analytical hardware models (through the one
primitive interpreter, ``repro.analysis.absint``), and the sketch
generator/sampler produce the random-but-valid schedules every downstream
subsystem consumes.  All generated sequences pass through the static
verifier in ``repro.analysis`` fail-closed.
"""

from __future__ import annotations

from repro.tensorir.loops import ANNOTATION_KINDS, Loop, LoopKind, LoopNest
from repro.tensorir.networks import (
    NETWORK_POOLS,
    NetworkPool,
    network_names,
    network_pool,
)
from repro.tensorir.primitives import (
    ANNOTATIONS,
    PRAGMAS,
    Primitive,
    PrimitiveKind,
)
from repro.tensorir.sampler import ScheduleSampler, divisors
from repro.tensorir.schedule import PAD_ALLOWANCE, Schedule, ScheduleError, split_parts
from repro.tensorir.sketch import SketchConfig, SketchGenerator
from repro.tensorir.subgraph import (
    Axis,
    Subgraph,
    conv2d_subgraph,
    elementwise_subgraph,
    matmul_subgraph,
    reduce_subgraph,
    sample_subgraph_pool,
)

__all__ = [
    "ANNOTATIONS",
    "ANNOTATION_KINDS",
    "Axis",
    "NETWORK_POOLS",
    "NetworkPool",
    "PAD_ALLOWANCE",
    "Loop",
    "LoopKind",
    "LoopNest",
    "PRAGMAS",
    "Primitive",
    "PrimitiveKind",
    "Schedule",
    "ScheduleError",
    "ScheduleSampler",
    "SketchConfig",
    "SketchGenerator",
    "Subgraph",
    "conv2d_subgraph",
    "divisors",
    "elementwise_subgraph",
    "matmul_subgraph",
    "network_names",
    "network_pool",
    "reduce_subgraph",
    "sample_subgraph_pool",
    "split_parts",
]
