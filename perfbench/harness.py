"""Measurement helpers for the perfbench workloads.

Three pieces, all independent of the program under test:

* :class:`Probe` and :func:`calibrate` -- a fixed CPU kernel run after
  every round, so each round's wall time can be rescaled to a host of
  fixed speed.  The shared VM this benchmark was
  tuned on drifts by up to 2x within a minute; rescaling by the probe
  cancels most of that drift.
* :func:`kind_medians`, :func:`rate`, :func:`p50` and
  :func:`tail_percentile` -- the round-time aggregates.
* :class:`Tracer` -- span recording around the public functions of each
  layer, patched in from outside the program, with self times (a span
  minus its direct children).
"""

from __future__ import annotations

import inspect
import math
import statistics
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple

import numpy as np

#: Kernel seconds of :meth:`Probe.kernel` on the reference host.  A
#: calibrated second is a wall second rescaled to a host whose probe
#: reads exactly this; the constant is arbitrary but must never change,
#: or calibrated figures stop being comparable across commits.
REF_PROBE_S = 0.0025

#: Kernel runs per probe point.
PROBE_RUNS = 3

#: A tail percentile must leave at least this many rounds beyond it.
TAIL_MIN_BEYOND = 10


class Probe:
    """A fixed, cache-resident CPU kernel: a pure-Python loop, small
    numpy ops and two 256x256 GEMMs, 2.5 ms on the reference host.

    The mix follows the workloads: ``build`` and ``search`` are mostly
    interpreter work, ``train`` mostly BLAS.
    """

    def __init__(self) -> None:
        self._a = np.linspace(-1.0, 1.0, 32 * 32, dtype=np.float32).reshape(32, 32)
        self._b = np.empty_like(self._a)
        self._m = np.linspace(0.0, 1.0, 256 * 256, dtype=np.float32).reshape(256, 256)
        self._c = np.empty_like(self._m)

    def kernel(self) -> float:
        """Run the kernel once; returns its wall seconds."""
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += (i * 7) % 13
        a, b = self._a, self._b
        for _ in range(200):
            np.multiply(a, np.float32(0.5), out=b)
            np.add(b, a, out=b)
            b.sum()
        np.matmul(self._m, self._m, out=self._c)
        np.matmul(self._c, self._m, out=self._c)
        return time.perf_counter() - start

    def point(self) -> list[float]:
        """One probe point: :data:`PROBE_RUNS` kernel timings."""
        return [self.kernel() for _ in range(PROBE_RUNS)]


def calibrate(wall_s: float, probe_s: Iterable[float], exponent: float = 1.0) -> float:
    """Rescale ``wall_s`` to the reference host.

    ``probe_s`` are the kernel timings taken around the measured interval
    (the point before it and the point after it).  Their median is the
    host's speed over the interval,
    so a single hiccuping kernel run -- one preemption -- cannot move the
    result.  ``exponent`` is how strongly the measured work follows the
    probe: a workload that slows by ``s**e`` when the probe slows by
    ``s`` is rescaled by ``(ref / probe) ** e``.
    """
    times = list(probe_s)
    if not times:
        raise ValueError("calibrate needs at least one probe timing")
    return wall_s * (REF_PROBE_S / statistics.median(times)) ** exponent


class Round(NamedTuple):
    """One timed round: its kind, work done, and wall/calibrated seconds."""

    kind: str
    work: float
    wall_s: float
    cal_s: float


def kind_medians(rounds: Iterable[Round]) -> dict[str, tuple[float, float, float]]:
    """Per round kind: (median work, median calibrated s, median wall s).

    Kinds differ in size (a resnet50 pool is twice a bert_tiny pool), so
    the aggregates below weigh every kind once, however many rounds of it
    the time window happened to fit.
    """
    by_kind: dict[str, list[Round]] = defaultdict(list)
    for r in rounds:
        by_kind[r.kind].append(r)
    return {
        kind: (
            statistics.median(r.work for r in rs),
            statistics.median(r.cal_s for r in rs),
            statistics.median(r.wall_s for r in rs),
        )
        for kind, rs in by_kind.items()
    }


def rate(rounds: Iterable[Round], calibrated: bool = True) -> float:
    """Work per second over one round of every kind, each at its median."""
    med = kind_medians(rounds)
    col = 1 if calibrated else 2
    return sum(m[0] for m in med.values()) / sum(m[col] for m in med.values())


def p50(rounds: Iterable[Round], calibrated: bool = True) -> float:
    """Each kind's median round seconds, averaged over the kinds.

    With one kind this is the plain median.  A median over all rounds of
    several kinds would jump between the kinds' sizes: over ten build
    runs it spread 14% where this spread 4%.
    """
    med = kind_medians(rounds)
    if not med:
        raise ValueError("p50 of no rounds")
    col = 1 if calibrated else 2
    return statistics.mean(m[col] for m in med.values())


def tail_percentile(values: Iterable[float]) -> tuple[int, float, int]:
    """The highest integer percentile with :data:`TAIL_MIN_BEYOND` values
    above it.

    Uses nearest-rank percentiles: percentile ``p`` of ``n`` sorted values
    is the one at rank ``ceil(p * n / 100)``.  Returns ``(p, value, n)``.
    Raises ``ValueError`` when not even the median leaves that many values
    beyond it (fewer than ``2 * TAIL_MIN_BEYOND`` values): a tail read off
    so few rounds would be their maximum, not a percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1], n
    raise ValueError(
        f"{n} rounds are too few for a tail: need {2 * TAIL_MIN_BEYOND} so "
        f"that at least {TAIL_MIN_BEYOND} lie beyond the median"
    )


# -- tracing -----------------------------------------------------------


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a round's root span
    round: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The program is single-threaded, so children of one span never
    overlap and their summed duration is the time they cover.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


class Tracer:
    """Records spans around patched functions while a round is open.

    :meth:`patch` replaces ``owner.attr`` -- a module function, or a
    method / classmethod on a class -- with a wrapper that records a span
    named after the layer metric it feeds.  :meth:`install` applies every
    registered patch and :meth:`uninstall` restores the originals, so
    untraced rounds run the unpatched program.  Spans are kept in memory
    (``spans``) and written out by the caller at exit.
    """

    ROOT = "round"

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._round = -1
        self._root_start = 0.0
        self._registered: list[tuple] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    # -- patching --------------------------------------------------------

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        before: "Callable[[tuple, dict], object] | None" = None,
        count: "Callable[[tuple, dict, object, object], Iterable[tuple[str, float]]] | None" = None,
    ) -> None:
        """Register a span ``name`` around ``owner.attr``.

        ``count(args, kwargs, result, token)`` returns ``(counter,
        amount)`` pairs to add, where ``token`` is what ``before(args,
        kwargs)`` returned.  Both run outside the span, so reading a
        counter is not charged to the layer.
        """
        self._registered.append((owner, attr, name, before, count))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, before, count in self._registered:
            static = inspect.getattr_static(owner, attr)
            own = attr in vars(owner)
            if isinstance(static, (classmethod, staticmethod)):
                wrapped = type(static)(self._wrap(static.__func__, name, before, count))
            else:
                wrapped = self._wrap(getattr(owner, attr), name, before, count)
            self._saved.append((owner, attr, static, own))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, static, own in reversed(self._saved):
            if own:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)  # was inherited: drop the shadowing wrapper
        self._saved.clear()

    def _wrap(self, fn: Callable, name: str, before, count) -> Callable:
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:  # outside a round: not part of the measurement
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self._round)
            if count is not None:
                for counter, amount in count(args, kwargs, result, token):
                    self.counts[counter] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    # -- rounds ----------------------------------------------------------

    def open_round(self, index: int) -> None:
        self._round = index
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._root_start = time.perf_counter()

    def close_round(self) -> None:
        end = time.perf_counter()
        root = self._stack.pop()
        if self._stack:
            raise RuntimeError("round closed with spans still open")
        self.spans[root] = Span(self.ROOT, self._root_start, end, -1, self._round)

    def layer_seconds(self, scale: "dict[int, float] | None" = None) -> tuple[dict[str, float], float, float]:
        """Self seconds per span name over all closed rounds.

        ``scale`` maps a round index to the factor turning its wall
        seconds into calibrated seconds.  Returns ``(per-name seconds,
        round seconds, covered seconds)``, the last two unscaled, where
        covered is the self time of every non-root span.
        """
        if self._stack:
            raise RuntimeError("layer_seconds called inside an open round")
        spans = self.spans
        per_name: dict[str, float] = defaultdict(float)
        total = covered = 0.0
        for s, t in zip(spans, self_times(spans)):
            if s.parent < 0:
                total += s.end - s.start
                continue
            covered += t
            per_name[s.name] += t * (scale[s.round] if scale else 1.0)
        return dict(per_name), total, covered
