#!/usr/bin/env python3
"""nestquiv benchmark: seeded workloads against the public API, every output checked.

Run from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload scrambled-growth --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --smoke

Everything runs in this one process on one thread as a closed loop: one
caller, and the next case starts only after the previous one returned.
With --trace 0 the run measures whole rounds of the workload until
--seconds of reference time have passed and prints the end-to-end
metrics; with --trace 1 it runs a fixed, seed-determined set of cases
twice, untraced and then traced (see tracer.py), and prints the per-layer
metrics, so that counts repeat exactly for a seed.  The last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it holds details (failures, the tail percentile and its sample
count, the raw wall-clock figures).

Reference time: on a host whose cores are shared with other tenants, the
speed of the same code swings by up to 2x from one second to the next, in
spells of seconds to minutes, which moves a wall-clock figure more than any
bound.  So every timed step (a case, a stage, a set-up) is bracketed by a
fixed reference loop of Fraction arithmetic, which a timer signal also runs
every SAMPLE_S within the step.  The loops cut the step into segments, and
a segment of wall time w counts as w * REF_MS / r, where r is the mean of
the loop's times at its two ends; the loops themselves count in no timing.
The timing metrics are in these units: ms or s on a machine where the loop
takes REF_MS.  A change to nestquiv moves them as it moves wall time; the
host's speed spells mostly cancel, as the loop runs in the same spell.
--smoke runs one or two cases of every workload in both modes and checks
that every metric named in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import tracer
from workloads import WORKLOADS, Case

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")

# Set-up is repeated and its median reported, so one slow import or a
# page-cache miss does not decide setup_s: at least SETUP_REPEATS times,
# and while the set-ups have taken less than SETUP_MIN_S reference
# seconds, up to SETUP_MAX_REPEATS (a set-up of 60 ms is far noisier than
# one of 3 s).
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 15
# A traced run takes the first this many cases of the stream (with the
# stages before them), about 12 s of untraced work each at the baseline, so
# that its counts repeat exactly for a seed.
TRACE_CASES = {"fixed-sweep": 250, "scrambled-growth": 18, "rep-audit": 144}
SMOKE_CASES = 2
# A timed run also stops once this many times --seconds of wall time have
# passed, so that a machine far slower than the reference still ends in time.
WALL_CAP = 3
# The reference loop's time, in ms, that the timing metrics are scaled to,
# and how often the loop runs within a step.
REF_MS = 1.0
SAMPLE_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    pass


def reference_loop_ms() -> float:
    """Time of a fixed loop of Fraction arithmetic, the kind of work
    nestquiv does most: the median of three runs of about 0.35 ms, so that
    an interrupt landing in one of them does not decide it."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        s = Fraction(0)
        for i in range(1, 40):
            s += Fraction(i, i + 1) * Fraction(3, 7)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) * 3 / 1e6


class RefClock:
    """Times consecutive steps in wall and in reference time.  The loop run
    after one step also serves as the one before the next.  With `sample`
    false the loop runs only between steps, so that no span of a traced
    step holds loop time."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.before = reference_loop_ms()
        self.loops: list[float] = []
        self.marks: list[tuple[int, float, int]] = []

    def _mark(self, signum, frame) -> None:
        t = time.perf_counter_ns()
        r = reference_loop_ms()
        self.marks.append((t, r, time.perf_counter_ns()))

    def time(self, fn):
        """Run fn(); returns (its result, wall ms, reference ms), neither
        counting the loops."""
        self.marks = []
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._mark)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter_ns()
        try:
            out = fn()
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            t1 = time.perf_counter_ns()
        after = reference_loop_ms()
        # a mark from a signal handled after t1 was read is past the step
        marks = [m for m in self.marks if m[0] < t1] + [(t1, after, t1)]
        wall_ms = ref_ms = 0.0
        start, r = t0, self.before
        for t, r_next, resume in marks:
            seg = (t - start) / 1e6
            wall_ms += seg
            ref_ms += seg * REF_MS * 2 / (r + r_next)
            self.loops.append(r_next)
            start, r = resume, r_next
        self.before = after
        return out, wall_ms, ref_ms


def import_library() -> SimpleNamespace:
    """Import nestquiv afresh from ./src, dropping any copy imported before."""
    if not os.path.isfile(os.path.join(SRC, "nestquiv", "__init__.py")):
        raise SetupError(f"no nestquiv package under {SRC}")
    for name in [m for m in sys.modules if m == "nestquiv" or m.startswith("nestquiv.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    nq = importlib.import_module("nestquiv")
    if not os.path.abspath(nq.__file__).startswith(SRC + os.sep):
        raise SetupError(f"nestquiv was imported from {nq.__file__}, not {SRC}")
    return SimpleNamespace(
        nq=nq,
        cli=importlib.import_module("nestquiv.cli"),
        corpus=importlib.import_module("nestquiv.corpus"),
    )


def set_up(name: str, seed: int, smoke: bool):
    """Import, generate the seeded inputs and write input files, several
    times (see SETUP_REPEATS); returns the last workload and the median
    set-up time in reference seconds."""
    times: list[float] = []
    workload = None
    clock = RefClock()
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        workload, _, ref_ms = clock.time(lambda: WORKLOADS[name](import_library(), seed, WORKDIR, smoke))
        times.append(ref_ms / 1e3)
    return workload, statistics.median(times)


class Tally:
    """What one pass over steps did: case latencies (wall and reference),
    failed checks, and the steps' total wall and reference time (the
    reference loops between steps are in neither).  Every step is one
    check: a case's output, or a stage's own check."""

    def __init__(self, sample: bool = True):
        self.clock = RefClock(sample)
        self.wall_ms: list[float] = []
        self.latencies_ms: list[float] = []
        self.cases_ok = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.wall_total_ms = 0.0
        self.ref_total_ms = 0.0


def checked(step) -> str | None:
    """Run one step; an unexpected exception is a failed check, not an abort."""
    try:
        return step.run()
    except Exception as e:  # noqa: BLE001 - the case boundary records every failure
        return f"{type(e).__name__}: {e}"


def execute(step, tally: Tally, runs: int = 1, trace=None) -> None:
    """Run a case `runs` times back to back (a stage once), checking every
    run; each run counts as a case done, and the case's latency is that of
    its fastest run."""
    is_case = isinstance(step, Case)
    if trace is not None:
        trace.case_c = step.c if is_case else None
    best = None
    for _ in range(runs if is_case else 1):
        out, wall_ms, ref_ms = tally.clock.time(lambda: checked(step))
        tally.wall_total_ms += wall_ms
        tally.ref_total_ms += ref_ms
        tally.attempted += 1
        if out:
            tally.failures.append(f"{step.label}: {out}")
        elif is_case:
            tally.cases_ok += 1
        if best is None or ref_ms < best[1]:
            best = (wall_ms, ref_ms)
    if is_case:
        tally.wall_ms.append(best[0])
        tally.latencies_ms.append(best[1])


def run_for(workload, seconds: float | None, max_cases: int | None, record: list | None = None) -> Tally:
    """Closed loop over whole rounds, starting rounds until the steps have
    taken `seconds` of reference time (the last round ends past it) or
    WALL_CAP * `seconds` of wall time, or until `max_cases` cases ran.
    Counting reference time makes the number of rounds, and so the mix of
    cases, the same in every run.  A timed run gives each case the
    workload's RUNS; a run that records its steps for the traced replay
    runs each case once.  The steps run are appended to `record` when one
    is given."""
    tally = Tally()
    runs = workload.RUNS if record is None else 1
    wall_deadline = time.perf_counter_ns() + int(WALL_CAP * seconds * 1e9) if seconds is not None else None
    for steps in workload.rounds():
        for step in steps:
            if max_cases is not None and len(tally.latencies_ms) >= max_cases:
                break
            execute(step, tally, runs)
            if record is not None:
                record.append(step)
        if max_cases is not None and len(tally.latencies_ms) >= max_cases:
            break
        if seconds is not None and (tally.ref_total_ms >= seconds * 1e3 or time.perf_counter_ns() >= wall_deadline):
            break
    return tally


def replay(steps, trace: tracer.Tracer) -> Tally:
    """Run the recorded steps again with the tracer's wrappers installed."""
    tally = Tally(sample=False)
    trace.install()
    try:
        for i, step in enumerate(steps):
            trace.case_id = i
            execute(step, tally, trace=trace)
    finally:
        trace.uninstall()
    return tally


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples above it."""
    if n < 11:
        return None
    return min(99, math.floor(100 * (1 - 10 / n)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[k - 1]


def end_to_end(tally: Tally, setup_s: float) -> tuple[dict, dict]:
    lat = tally.latencies_ms
    q = tail_percentile(len(lat))
    values = {
        "setup_s": setup_s,
        "cases_per_s": tally.cases_ok / (tally.ref_total_ms / 1e3),
        "case_ms_p50": statistics.median(lat),
        # too few cases for a tail with ten beyond it: report the maximum
        "case_ms_tail": percentile(lat, q) if q is not None else max(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "tail_percentile": q if q is not None else 100,
        "samples": len(lat),
        "failed_frac": len(tally.failures) / tally.attempted,
        "wall_s": tally.wall_total_ms / 1e3,
        "wall_cases_per_s": tally.cases_ok / (tally.wall_total_ms / 1e3),
        "wall_case_ms_p50": statistics.median(tally.wall_ms),
        "reference_loop_ms_p50": statistics.median(tally.clock.loops),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, detail


def measure(name: str, seed: int, seconds: float, trace_on: bool, smoke: bool) -> dict:
    workload, setup_s = set_up(name, seed, smoke)
    if not trace_on:
        tally = run_for(workload, seconds, SMOKE_CASES if smoke else None)
        metrics, detail = end_to_end(tally, setup_s)
    else:
        steps: list = []
        plain = run_for(workload, None, SMOKE_CASES if smoke else TRACE_CASES[name], steps)
        trace = tracer.Tracer()
        tally = replay(steps, trace)
        tally.attempted += plain.attempted
        tally.failures += plain.failures
        values = trace.metrics(tally.wall_total_ms, tally.ref_total_ms / plain.ref_total_ms - 1.0)
        metrics = {k: {"value": values[k], "unit": tracer.metric_unit(k)} for k in tracer.metric_names()}
        os.makedirs(WORKDIR, exist_ok=True)
        spans_path = os.path.join(WORKDIR, f"spans-{name}-{seed}.jsonl")
        trace.write(spans_path)
        detail = {"spans": len(trace.sp_name), "spans_file": os.path.relpath(spans_path, ROOT),
                  "failed_frac": len(tally.failures) / tally.attempted}
    detail.update(workload=name, seed=seed, trace=int(trace_on), cases=len(tally.latencies_ms),
                  failures=tally.failures[:10])
    return {
        "detail": detail,
        "result": {
            "correct": not tally.failures,
            "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": metrics,
        },
    }


def smoke() -> int:
    """Both modes on one or two cases of every workload; checks the printed
    metric names and units against BENCHMARK.json and that nothing failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for w in spec["workloads"]:
        for trace_on, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            out = measure(w["name"], 1, 60.0, trace_on, smoke=True)
            metrics = out["result"]["metrics"]
            where = f"{w['name']} trace={int(trace_on)}"
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: metric {m['name']} missing or without unit {m['unit']}")
            extra = set(metrics) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{where}: unlisted metrics {sorted(extra)}")
            if out["detail"]["failed_frac"] != 0 or not out["result"]["correct"]:
                problems.append(f"{where}: failures {out['detail']['failures']}")
            print(json.dumps({"smoke": where, "metrics": len(metrics), "failed_frac": out["detail"]["failed_frac"]}))
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick self-check of every workload")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    except SetupError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
