"""Static verification of schedule primitive sequences.

Checks a primitive sequence against its subgraph *without* applying the
schedule or simulating latency: per-primitive structural rules (E1xx),
whole-sequence dataflow over axis liveness (E2xx), and performance-smell
warnings (W3xx).  See ``repro.analysis.diagnostics`` for the code
taxonomy.

Every function here is a thin view of the one interpreter,
:class:`repro.analysis.absint.Interpreter`, run in collect mode: an axis
name goes ``UNDEFINED -> LIVE -> CONSUMED`` (subgraph axes start live;
SP/FSP and FU consume their inputs and define fresh axes; every other
primitive may only reference live axes), each rejection is recorded as a
:class:`Diagnostic`, and the run recovers so one corrupt step does not
mask later ones.  ``Schedule.apply()`` and ``absint.profile`` are the
same run in raise mode, so a sequence with no error diagnostic always
applies and profiles, and one with an error never does.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.absint import Interpreter
from repro.analysis.diagnostics import Diagnostic, InvalidScheduleError, errors
from repro.tensorir.primitives import Primitive
from repro.tensorir.schedule import Schedule
from repro.tensorir.subgraph import Subgraph


def verify_sequence(
    subgraph: Subgraph, primitives: tuple[Primitive, ...], target: str = "cpu"
) -> list[Diagnostic]:
    """Statically verify a primitive sequence against a subgraph."""
    return Interpreter(subgraph, target).diagnose(tuple(primitives))


def verify_many(
    subgraph: Subgraph,
    sequences: "Iterable[tuple[Primitive, ...]]",
    target: str = "cpu",
    *,
    stop_on_error: bool = False,
) -> list[list[Diagnostic]]:
    """Verify a batch of sequences against one subgraph and target.

    Beats a Python loop of :func:`verify_sequence` by setting up the
    interpreter (initial loop table, smell thresholds) once for the
    batch; ``stop_on_error`` additionally ends each sequence at its first
    error — the screening mode for batch producers that only gate on
    validity.
    """
    interp = Interpreter(subgraph, target)
    return [interp.diagnose(tuple(seq), stop_on_error) for seq in sequences]


def verify_schedule(schedule: Schedule) -> list[Diagnostic]:
    """Statically verify a :class:`Schedule` (sequence + subgraph + target)."""
    return verify_sequence(schedule.subgraph, schedule.primitives, schedule.target)


def _raise_invalid(schedule: Schedule, bad: list[Diagnostic]) -> None:
    raise InvalidScheduleError(
        f"schedule of {schedule.subgraph.name!r} failed static verification", bad
    )


def assert_valid(schedule: Schedule) -> list[Diagnostic]:
    """Fail-closed gate: raise on any error diagnostic, return all diagnostics.

    This is what the sampler (and later: dataset generation, autotuner
    mutation) calls on every sequence before it is allowed downstream.
    """
    diags = verify_schedule(schedule)
    bad = errors(diags)
    if bad:
        _raise_invalid(schedule, bad)
    return diags


def assert_valid_many(schedules: Sequence[Schedule]) -> list[list[Diagnostic]]:
    """Fail-closed gate over a batch: raise on any error.

    The batch analogue of :func:`assert_valid` — what the sketch
    generator's batch sampling calls.  Consecutive schedules of an equal
    (subgraph, target) share one interpreter set-up; sequences are
    screened with per-sequence early exit, and warnings on sequences
    before the failing one are still returned.
    """
    all_diags: list[list[Diagnostic]] = []
    interp: Interpreter | None = None
    for schedule in schedules:
        subgraph, target = schedule.subgraph, schedule.target
        if (
            interp is None
            or target != interp.target
            or (subgraph is not interp.subgraph and subgraph != interp.subgraph)
        ):
            interp = Interpreter(subgraph, target)
        diags = interp.diagnose(schedule.primitives, stop_on_error=True)
        bad = errors(diags)
        if bad:
            _raise_invalid(schedule, bad)
        all_diags.append(diags)
    return all_diags


__all__ = [
    "assert_valid",
    "assert_valid_many",
    "verify_many",
    "verify_schedule",
    "verify_sequence",
]
