"""Closed-loop harness: per-op deadline, timed and traced passes, metrics.

One process runs one op at a time; the next starts when the previous one
has finished, been checked, or hit the deadline.  The deadline is a
SIGALRM timer armed around the timed part of each op, so a call that never
returns (the ``up_sqrt_frac`` walk, for one) is interrupted, counted as
failed, and the run goes on.
"""
from __future__ import annotations

import cProfile
import math
import os
import platform
import pstats
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import layers
from .workloads import CheckFailed, child_env

ROOT = Path(__file__).resolve().parent.parent
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
SETUP_SAMPLES = 7
PROBE_SAMPLES = 5
# the profile pass runs only ops that finished in the span pass; its longer
# deadline leaves room for the profiler's overhead
PROFILE_DEADLINE_FACTOR = 10


class DeadlineHit(Exception):
    """The op ran past the benchmark's per-op deadline."""


def _on_alarm(signum, frame):
    raise DeadlineHit()


@contextmanager
def deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    kind: str
    ms: float
    failure: str | None = None  # "deadline", "raised <Type>" or "check: ..."
    inconclusive: bool = False


def execute(w, state, op, call, slack: float = 1.0, profile=None) -> Outcome:
    """Prepare, run under the op's deadline times `slack`, and check one op."""
    inputs = w.prepare(state, op)
    start = time.perf_counter()
    try:
        with deadline(w.deadline_s * slack):
            if profile is not None:
                profile.enable()
            try:
                result = w.call(state, op, inputs, call)
            finally:
                if profile is not None:
                    profile.disable()
    except DeadlineHit:
        failure = "deadline"
    except Exception as e:  # any raise is a failed op, never a stopped run
        failure = f"raised {type(e).__name__}"
    else:
        failure = None
    ms = (time.perf_counter() - start) * 1000.0
    if failure is not None:
        w.repair(state, op)
        return Outcome(op.kind, ms, failure)
    try:
        inconclusive = w.check(state, op, inputs, result)
    except CheckFailed as e:
        return Outcome(op.kind, ms, f"check: {e}")
    except Exception as e:  # a malformed result breaks the check itself
        return Outcome(op.kind, ms, f"check: {type(e).__name__}: {e}")
    return Outcome(op.kind, ms, None, bool(inconclusive))


def timed_run(w, seed: int, seconds: float, workdir: Path) -> list:
    """Untraced closed loop, cycling through the seeded pool for `seconds`
    of wall time.  An op that hit the deadline is not run again when the
    pool comes round; it counts as failed again at no cost in time."""
    state = w.setup(seed, workdir)
    pool = state["pool"]
    hung: dict = {}
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        i = len(outcomes) % len(pool)
        if i in hung:
            outcomes.append(hung[i])
            if len(hung) == len(pool):
                break
            continue
        out = execute(w, state, pool[i], layers.direct)
        if out.failure == "deadline":
            hung[i] = out
        outcomes.append(out)
    return outcomes


def tail(values, percentile: float):
    """(percentile, value): the workload's rung of TAIL_LADDER, or the
    highest lower rung that still leaves at least ten values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (r for r in TAIL_LADDER if r <= percentile):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10 or p == TAIL_LADDER[-1]:
            return p, ordered[max(rank, 1) - 1]
    raise AssertionError("unreachable")


def summarize(w, outcomes) -> tuple[dict, dict]:
    """End-to-end metrics and the detail record of one timed run."""
    attempted = len(outcomes)
    done = [o for o in outcomes if o.failure is None]
    times = [o.ms for o in done]
    p, tail_ms = tail(times, w.tail_percentile) if times else (None, math.nan)
    failed = attempted - len(done)
    inconclusive = sum(o.inconclusive for o in done)
    metrics = {
        # deadline hits are counted by ok_frac; leaving their time out here
        # keeps one hit more or less in a run from swamping the throughput
        "ops_per_s": len(done) / (sum(times) / 1000.0) if times else 0.0,
        "op_p50_ms": statistics.median(times) if times else math.nan,
        "op_tail_ms": tail_ms,
        "ok_frac": len(done) / attempted,
        "decided_frac": 1 - inconclusive / len(done) if done else math.nan,
    }
    causes: dict = {}
    for o in outcomes:
        if o.failure is not None:
            key = f"{o.kind}: {o.failure}"
            causes[key] = causes.get(key, 0) + 1
    detail = {
        "attempted": attempted,
        "completed": len(done),
        "failed": failed,
        "failed_frac": failed / attempted,
        "inconclusive_frac": inconclusive / len(done) if done else None,
        "op_tail_percentile": p,
        "ops_beyond_tail": sum(t > tail_ms for t in times),
        "failures": causes,
    }
    return metrics, detail


def verdict(outcomes) -> dict:
    """The result's ``correct``, ``attempted`` and ``failed``: a deadline hit
    is a failed op, while a raise or a wrong answer also makes the run
    incorrect."""
    failures = [o.failure for o in outcomes if o.failure is not None]
    return {"correct": all(f == "deadline" for f in failures),
            "attempted": len(outcomes), "failed": len(failures)}


def traced_run(w, seed: int, workdir: Path, n_ops: int | None = None):
    """Per-layer metrics from a fixed list of ops: a span pass, then a
    profile pass over the ops the span pass finished.  Returns the metrics
    and the span pass's outcomes."""
    n_ops = w.trace_ops if n_ops is None else n_ops
    state = w.setup(seed, workdir)
    ops = [state["pool"][i % len(state["pool"])] for i in range(n_ops)]
    spans = layers.Spans()
    outcomes = [execute(w, state, op, spans) for op in ops]
    span_ms = {i: o.ms for i, o in enumerate(outcomes) if o.failure is None}
    finished = sorted(span_ms)
    state = w.setup(seed, workdir)
    stats = None
    prof_ms = {}
    for i in finished:
        profile = cProfile.Profile()
        out = execute(w, state, ops[i], layers.direct,
                      PROFILE_DEADLINE_FACTOR, profile)
        if out.failure is None:
            prof_ms[i] = out.ms
            if stats is None:
                stats = pstats.Stats(profile)
            else:
                stats.add(profile)
    metrics = spans.totals()
    if stats is not None:
        metrics.update(layers.attribute(stats))
    both = [i for i in finished if i in prof_ms]
    untraced = sum(span_ms[i] for i in both)
    metrics["trace.overhead_ratio"] = (
        sum(prof_ms[i] for i in both) / untraced if untraced else math.nan)
    return metrics, outcomes


# -- process-level measurements ---------------------------------------------


def _median_wall(argv, samples: int) -> float:
    walls = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(argv, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that start, import evolalg, make
    the inputs and build the long-lived structures, then exit."""
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
            workload, "--seed", str(seed), "--setup-only"]
    return _median_wall(argv, SETUP_SAMPLES)


def interp_start_ms() -> float:
    return 1000 * _median_wall([sys.executable, "-c", "pass"], PROBE_SAMPLES)


def import_ms() -> float:
    """Median cumulative ``import evolalg`` time from ``-X importtime``."""
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| evolalg$")
    values = []
    for _ in range(PROBE_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import evolalg"], env=child_env(), check=True,
                              capture_output=True, text=True)
        micros = [int(m.group(1)) for line in proc.stderr.splitlines()
                  if (m := pattern.match(line))]
        values.append(micros[-1] / 1000.0)
    return statistics.median(values)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop; tells host drift apart from
    a change in the program."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 20001):
            acc += Fraction(i % 7 + 1, i % 5 + 1)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record() -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "reference_loop_s": reference_loop_s(),
    }
