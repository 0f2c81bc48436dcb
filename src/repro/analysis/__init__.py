"""Static analysis: the primitive-sequence interpreter, its verifier
view, and the repo lint.

* ``absint`` — the one interpreter of the 11 primitive kinds, run over
  an abstract loop-nest interval domain without applying the schedule:
  in raise mode it yields a :class:`~repro.analysis.absint.StaticProfile`
  (the concrete nest ``Schedule.apply()`` returns); in collect mode it
  yields diagnostics.
* ``batch`` — the interpreter's batch pass (``BatchProfile``): raise
  mode over a (subgraph, target) batch, one run per structural key and
  the rest as integer columns, yielding the batch's static feature
  plane, nest features and draft scores.
* ``verifier`` — thin functions over the collect mode: structural E1xx
  rules, axis-liveness E2xx dataflow, W3xx performance smells, and the
  fail-closed ``assert_valid*`` gates.
* ``diagnostics`` — the :class:`Diagnostic` record and error-code taxonomy.
* ``lint`` — pluggable AST rule framework enforcing DESIGN.md §7
  conventions over the source tree
  (``python -m repro.analysis.lint src/ tests/ benchmarks/``).
"""

from __future__ import annotations

from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    InvalidScheduleError,
    Severity,
    errors,
    format_diagnostics,
    has_errors,
    taxonomy_table,
)
from repro.analysis.absint import (
    AbsIntError,
    StaticProfile,
    profile,
)
from repro.analysis.verifier import (
    assert_valid,
    assert_valid_many,
    verify_many,
    verify_schedule,
    verify_sequence,
)

__all__ = [
    "AbsIntError",
    "CODES",
    "Diagnostic",
    "InvalidScheduleError",
    "Severity",
    "StaticProfile",
    "profile",
    "assert_valid",
    "assert_valid_many",
    "errors",
    "format_diagnostics",
    "has_errors",
    "taxonomy_table",
    "verify_many",
    "verify_schedule",
    "verify_sequence",
]
