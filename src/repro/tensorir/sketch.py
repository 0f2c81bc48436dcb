"""Sketch configuration and generation.

A *sketch* (Ansor terminology) is the structural skeleton of a schedule —
how many tile levels each axis gets, whether a write-cache stage is added,
which loops are annotated — with the free parameters (split factors,
unroll steps) filled in by random sampling.  :class:`SketchGenerator`
composes the two and checks every generated sequence fail-closed with the
abstract interpreter's batch pass, the verifier's rules in raise mode: an
invalid sequence is a bug, not a sample.  The one exception is a caller
that abstractly interprets every sample itself
(``generate_many(..., verify=False)``), which gates on that pass instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from repro.tensorir.schedule import Schedule
from repro.tensorir.subgraph import Subgraph
from repro.utils.rng import Replay

TARGETS = ("cpu", "gpu")
PROBABILITIES = ("padding_prob", "cache_write_prob", "rfactor_prob", "inline_prob")


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SketchConfig:
    """Structural parameters of sketch generation for one target."""

    target: str = "cpu"
    #: Inner split factors are capped at this (Ansor's max_innermost_factor).
    max_innermost_factor: int = 64
    #: Probability that one sampled factor is bumped off a divisor, padding
    #: the axis (bounded by the verifier's allowance; DESIGN.md §6).
    padding_prob: float = 0.05
    #: Probability of adding a write-cache stage (CPU only).
    cache_write_prob: float = 0.2
    #: Probability of rfactoring a split reduction axis.
    rfactor_prob: float = 0.15
    #: Probability of emitting a compute-inline-only schedule for
    #: reduction-free subgraphs.
    inline_prob: float = 0.1
    #: Candidate values for the auto_unroll_max_step pragma.
    unroll_steps: tuple[int, ...] = (0, 16, 64, 512)

    def __post_init__(self) -> None:
        """Reject a config the sampler cannot draw from, naming the field,
        before any sample: an empty or non-int option list would otherwise
        fail at the first draw, and a probability outside [0, 1] (NaN
        included) would be sampled silently."""
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}, expected one of {TARGETS}")
        if not (_is_int(self.max_innermost_factor) and self.max_innermost_factor >= 1):
            raise ValueError("SketchConfig.max_innermost_factor must be an int >= 1, "
                             f"got {self.max_innermost_factor!r}")
        steps = self.unroll_steps
        if not steps or not all(_is_int(s) and s >= 0 for s in steps):
            raise ValueError("SketchConfig.unroll_steps must be a non-empty sequence of "
                             f"ints >= 0, got {steps!r}")
        for name in PROBABILITIES:
            p = getattr(self, name)
            if not (isinstance(p, Real) and 0 <= p <= 1):  # NaN compares False
                raise ValueError(f"SketchConfig.{name} must be a probability in [0, 1], got {p!r}")


class SketchGenerator:
    """Generates verified random schedules for a subgraph."""

    def __init__(self, config: SketchConfig):
        self.config = config

    def generate(self, subgraph: Subgraph, rng: np.random.Generator) -> Schedule:
        """Sample one schedule; statically verified fail-closed.

        Raises ``repro.analysis.InvalidScheduleError`` if the sampler ever
        emits a sequence the verifier rejects — that is a bug in the
        sampler, and letting it through would poison every downstream
        dataset record (see ISSUE/DESIGN motivation).
        """
        return self.generate_many(subgraph, 1, rng)[0]

    def generate_many(
        self,
        subgraph: Subgraph,
        n: int,
        rng: np.random.Generator,
        *,
        verify: bool = True,
        plans: "dict | None" = None,
    ) -> list[Schedule]:
        """Sample ``n`` schedules, verified fail-closed in one batch pass.

        Each call makes its own ``ScheduleSampler``, which fixes the
        subgraph's sketch plan once and interns its SP steps, so the
        batch's schedules share primitive objects and nothing is kept
        after the call.  The sampler constructs sequences that are valid
        by definition of its own bookkeeping, so verification is a guard
        against sampler bugs, not a filter: the batch goes through the
        abstract interpreter's batch pass
        (``repro.analysis.batch.BatchProfile``), which interprets one
        sequence per structural key and checks the rest as integer
        columns; a caller checking many small batches passes one ``plans``
        dict to all of them, so a key met again is not interpreted again
        (the output is the same either way).  Should it flag anything, the
        batch is re-checked with ``repro.analysis.assert_valid_many``, so
        the error is the verifier's ``InvalidScheduleError``.  Equivalent
        to ``n`` :meth:`generate` calls on the same ``rng`` stream, just
        cheaper.

        Every batch draws through a ``repro.utils.rng.Replay`` of ``rng``:
        the sampler reads its ``random()`` and ``integers()`` values from
        PCG64 words taken in bulk, and ``rng`` ends where the scalar numpy
        calls would have left it, also when sampling raises.  ``rng`` must
        therefore be a PCG64 Generator (``TypeError`` otherwise), as every
        ``repro.utils.rng.stream`` is.  ``n`` must be >= 0; ``n == 0``
        returns ``[]``.

        ``verify=False`` skips that pass and returns the raw samples (the
        rng draws are the same either way).  Only a caller that abstractly
        interprets *every* returned schedule before using it may pass it,
        and it must then treat an ``AbsIntError`` as fatal: the verifier
        is the same interpreter in collect mode, so that pass is the same
        gate.  The dataset build (``repro.dataset.pipeline``) and
        ``CandidateScorer.propose_topk``, both through ``BatchProfile``,
        are those callers; everything else keeps the default.
        """
        # Imported lazily: repro.analysis imports repro.tensorir submodules,
        # so a module-level import here would be circular during package init.
        from repro.analysis import verifier
        from repro.analysis.batch import BatchProfile
        from repro.tensorir.sampler import WORDS_PER_CANDIDATE, ScheduleSampler

        if n < 0:
            raise ValueError(f"generate_many needs n >= 0, got {n}")
        sampler = ScheduleSampler(self.config)
        with Replay(rng, WORDS_PER_CANDIDATE * n) as draws:
            schedules = [sampler.sample(subgraph, draws) for _ in range(n)]
        if verify:
            BatchProfile(subgraph, schedules, self.config.target,
                         lambda: verifier.assert_valid_many(schedules), plans)
        return schedules


__all__ = ["PROBABILITIES", "SketchConfig", "SketchGenerator", "TARGETS"]
