"""Run one perfbench workload and report it.

``run.py`` is the command; this module does the work:

1. set-up, repeated ``workload.setup_reps`` times, each repetition probed;
2. one untimed warm-up round and ``gc.collect()``;
3. timed rounds for ``--seconds`` (and at least one round of every
   kind), each followed by a calibration probe and untimed checks;
4. untimed end-of-run checks;
5. a report: one line per metric, then the result as one JSON line.

With ``--trace 1`` every slot runs its round twice, untraced then traced;
the per-layer metrics come from the traced rounds, and the median traced
round over the median untraced one gives the tracing overhead.
End-to-end metrics come only from untraced runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import harness
import workloads
from harness import Round, calibrate

#: The timed loop stops here even if a kind is still unmeasured, so a
#: pathologically slow host still exits well inside the 180 s budget.
HARD_STOP_S = 120.0

#: End-to-end metrics every workload reports, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("records_per_s", "records/s"),
    ("round_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Session:
    """The measurement state of one run: probe timings, rounds, failures."""

    def __init__(self, workload, trace: bool):
        self.workload = workload
        self.probe = harness.Probe()
        self.tracer = harness.Tracer() if trace else None
        if self.tracer is not None:
            workloads.instrument(self.tracer)
        self.probe_times: list[float] = []
        self.point = self._probe()
        self.rounds: list[Round] = []
        self.traced: list[Round] = []
        self.scale: dict[int, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _probe(self) -> list[float]:
        point = self.probe.point()
        self.probe_times += point
        return point

    def timed(self, fn) -> tuple[float, float]:
        """Wall and calibrated seconds of ``fn()``, probed around it."""
        before = self.point
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        self.point = self._probe()
        return wall, calibrate(wall, before + self.point)

    def round(self, kind: str, slot: int, *, record: bool = True,
              traced: bool = False) -> "Round | None":
        """One round: run, probe, then check outside the timing."""
        self.attempted += 1
        index = self.attempted
        tracer = self.tracer if traced else None
        before = self.point
        if tracer is not None:
            tracer.install()
            tracer.open_round(index)
        start = time.perf_counter()
        try:
            work, result = self.workload.round(kind, slot)
            wall = time.perf_counter() - start
        except Exception:  # a failing round is counted and reported, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.problems.append(f"{kind}: round raised (traceback on stderr)")
            return None
        finally:
            if tracer is not None:
                tracer.close_round()
                tracer.uninstall()
        self.point = self._probe()
        r = Round(kind, float(work), wall,
                  calibrate(wall, before + self.point, self.workload.calibration_exponent))
        problems = self.workload.check(kind, result)
        if problems:
            self.failed += 1
            self.problems += problems
        if tracer is not None:
            self.scale[index] = r.cal_s / r.wall_s
            for counter, amount in self.workload.trace_counts(result).items():
                tracer.counts[counter] += amount
            self.traced.append(r)
        elif record:
            self.rounds.append(r)
        return r


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def measure(workload, seconds: float, trace: bool, import_s: float,
            out=print, spans_path: "Path | None" = None) -> dict:
    """Run every phase of one workload; returns the result object.

    With ``trace``, the recorded spans are written to ``spans_path``
    (one JSON object per line) once the run is over.
    """
    session = Session(workload, trace)
    setups = []
    for rep in range(workload.setup_reps):
        if rep:
            workload.discard_setup(rep - 1)
        setups.append(session.timed(lambda: workload.setup(rep)))
    # Imports run before the probe can, so they are rescaled by the host
    # speed over the whole set-up phase; the single point right after
    # them doubled their run-to-run range over 12 runs (15% -> 30%).
    cal_import = calibrate(import_s, session.probe_times)
    setup_wall = import_s + statistics.median(w for w, _ in setups)
    setup_cal = cal_import + statistics.median(c for _, c in setups)
    setup_line = (f"set-up: imports {_fmt(cal_import)} s (raw {_fmt(import_s)}) + median of "
                  f"{len(setups)} repetitions, the first cold: "
                  + ", ".join(f"{_fmt(c)} s (raw {_fmt(w)})" for w, c in setups))

    session.round(workload.kinds[0], 0, record=False)  # warm-up
    gc.collect()

    # Past the deadline, go on until every kind has run and, for a tail,
    # until enough rounds lie beyond it.
    min_rounds = 2 * harness.TAIL_MIN_BEYOND if workload.reports_tail and not trace else 1
    pairs: list[tuple[Round, Round]] = []
    seen: set[str] = set()
    start = time.perf_counter()
    slot = 0
    while True:
        elapsed = time.perf_counter() - start
        done = (elapsed >= seconds and len(seen) == len(workload.kinds)
                and max(len(session.rounds), len(pairs)) >= min_rounds)
        if done or elapsed >= HARD_STOP_S:
            break
        kind = workload.kinds[slot % len(workload.kinds)]
        slot += 1
        plain = session.round(kind, slot, record=not trace)
        if trace:
            traced = session.round(kind, slot, traced=True)
            if plain is not None and traced is not None:
                pairs.append((plain, traced))
                seen.add(kind)
        elif plain is not None:
            seen.add(kind)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed_s = time.perf_counter() - start

    problems, lines = workload.finish()
    session.problems += problems
    checks = session.problems
    n_rounds = len(pairs) if trace else len(session.rounds)

    out(f"perfbench {workload.name}: seed {workload.seed}, {n_rounds} timed "
        f"{'round pairs' if trace else 'rounds'} over {len(seen)} kinds in {timed_s:.1f} s "
        f"(+1 warm-up), trace={int(trace)}")
    if not (session.rounds or pairs):
        raise RuntimeError("no round completed; see stderr")
    host_ms = 1e3 * statistics.median(session.probe_times)
    out(f"host probe median {host_ms:.3f} ms (reference {1e3 * harness.REF_PROBE_S:.3f} ms)")
    out(setup_line)

    if trace:
        metrics = _layer_metrics(session, pairs, host_ms, out)
        if spans_path is not None:
            write_spans(session.tracer, spans_path)
    else:
        metrics = _end_to_end(workload, session.rounds, setup_cal, setup_wall,
                              peak_rss_mb, out)
    for line in lines:
        out(line)
    out(f"checks: {'all passed' if not checks else f'{len(checks)} FAILED'}")
    for problem in checks[:20]:
        out(f"  FAILED {problem}")
    return {
        "correct": not checks and session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


def _end_to_end(workload, rounds: list[Round], setup_cal: float, setup_wall: float,
                peak_rss_mb: float, out) -> dict:
    values = {
        "setup_s": (setup_cal, setup_wall),
        "records_per_s": (harness.rate(rounds), harness.rate(rounds, calibrated=False)),
        "round_p50_ms": (1e3 * harness.p50(rounds), 1e3 * harness.p50(rounds, calibrated=False)),
        "peak_rss_mb": (peak_rss_mb, None),
    }
    metrics = {}
    for name, unit in END_TO_END:
        value, raw = values[name]
        metrics[name] = {"value": value, "unit": unit}
        raw_text = "" if raw is None else f"   (raw {_fmt(raw)})"
        out(f"{name:<18} {_fmt(value):>12} {unit}{raw_text}")
    # Workload-specific figures, printed but not part of the result object.
    if workload.candidates(rounds[0].kind, rounds[0].work) is not None:
        cand = [r._replace(work=workload.candidates(r.kind, r.work)) for r in rounds]
        out(f"{'candidates_per_s':<18} {_fmt(harness.rate(cand)):>12} candidates/s"
            f"   (raw {_fmt(harness.rate(cand, calibrated=False))})")
    if workload.reports_tail:
        p, value, n = harness.tail_percentile([r.cal_s for r in rounds])
        _, raw, _ = harness.tail_percentile([r.wall_s for r in rounds])
        out(f"{'round_tail_ms':<18} {_fmt(1e3 * value):>12} ms   (p{p} of {n} rounds; "
            f"raw {_fmt(1e3 * raw)})")
    return metrics


def _layer_metrics(session: Session, pairs, host_ms: float, out) -> dict:
    tracer = session.tracer
    per_name, total, covered = tracer.layer_seconds(session.scale)
    raw_per_name, _, _ = tracer.layer_seconds()
    n = len(session.traced)
    values: dict[str, float] = {name: secs / n for name, secs in per_name.items()}
    raw = {name: secs / n for name, secs in raw_per_name.items()}
    for counter, amount in tracer.counts.items():
        values[counter] = amount / n
    lookups = tracer.counts.get("extractor.row_lookups", 0.0)
    encoded = tracer.counts.get("extractor.rows_encoded", 0.0)
    values["extractor.cache_hit_ratio"] = 1.0 - encoded / lookups if lookups else 0.0
    if session.workload.eval_wall is not None:
        raw["trainer.eval_s"] = session.workload.eval_wall
        values["trainer.eval_s"] = calibrate(session.workload.eval_wall, session.point)
    values["host.cal_ms"] = host_ms
    values["trace.overhead_pct"] = 100.0 * (
        harness.p50(t for _, t in pairs) / harness.p50(p for p, _ in pairs) - 1.0)
    values["trace.coverage_pct"] = 100.0 * covered / total
    metrics = {}
    for name, unit in workloads.LAYER_METRICS:
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        raw_text = f"   (raw {_fmt(raw[name])})" if name in raw else ""
        out(f"{name:<26} {_fmt(value):>12} {unit}{raw_text}")
    return metrics


def write_spans(tracer: harness.Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s._asdict()) + "\n")


def main(argv: "list[str] | None", root: Path, import_s: float) -> int:
    args = parse_args(argv)
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        spans_path = work_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result = measure(workload, args.seconds, bool(args.trace), import_s,
                         spans_path=spans_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0
