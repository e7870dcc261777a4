"""Shared plumbing for the performance benchmark: paths, timed child
processes, order statistics and the in-memory span recorder.

Everything here drives the product from outside. Child processes run
``python -m repro ...`` (or a probe script) with ``src/`` on the path;
the benchmark process itself only imports ``repro`` to check answers
and to draw seeded inputs, never inside a timed window.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

#: the checkout root (this file is ``<root>/benchmarks/perf/common.py``)
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PROGRAMS = ROOT / "benchmarks" / "programs"
#: scratch space for stores, edited sources, daemon logs and traces
WORK_ROOT = ROOT / ".perf_work"
EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

PYTHON = sys.executable or "python3"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, a daemon that
    never came up); not a measured failure."""


def check_checkout() -> None:
    """Refuse to run outside a full checkout: the product's sources and
    the benchmark programs must both be present."""
    missing = [
        str(p.relative_to(ROOT))
        for p in (SRC / "repro" / "cli.py", PROGRAMS / "compiler.c")
        if not p.exists()
    ]
    if missing:
        raise BenchmarkError(
            f"not a repro checkout (missing {', '.join(missing)}) under {ROOT}"
        )


def import_repro() -> None:
    """Make ``repro`` importable in the benchmark process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def repro_argv(*args: str) -> list[str]:
    return [PYTHON, "-m", "repro", *args]


def make_workdir(name: str) -> Path:
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def load_expected_digests() -> dict:
    with open(EXPECTED_DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# timed child processes
# ---------------------------------------------------------------------------


class ChildRun:
    """Outcome of one timed child process."""

    __slots__ = ("seconds", "maxrss_kb", "returncode", "stderr")

    def __init__(self, seconds, maxrss_kb, returncode, stderr):
        self.seconds = seconds
        self.maxrss_kb = maxrss_kb
        self.returncode = returncode
        self.stderr = stderr


def run_child(argv: list[str], stderr_path: Path, timeout: float = 120.0) -> ChildRun:
    """Run ``argv`` to completion; wall time from spawn to reap, and the
    child's own peak RSS from ``wait4`` (kilobytes on Linux).

    Output goes to files named on the command line, never to a pipe, so
    the wait cannot deadlock on a full pipe buffer.
    """
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=child_env(), cwd=str(ROOT),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        seconds, usage.ru_maxrss, proc.returncode,
        stderr_path.read_text(errors="replace"),
    )


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

#: percentiles the tail helper may report, highest last
TAIL_PERCENTILES = (50, 90, 95, 99)


def _rank(count: int, q: float) -> int:
    """Nearest rank of quantile ``q``; the epsilon keeps 0.9 * 100 from
    rounding up to 91."""
    return max(1, math.ceil(q * count - 1e-9))


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of already sorted values (0 < q <= 1)."""
    if not sorted_values:
        raise ValueError("quantile of no samples")
    return sorted_values[_rank(len(sorted_values), q) - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def tail_percentile(count: int) -> Optional[int]:
    """The highest of :data:`TAIL_PERCENTILES` that leaves at least ten
    samples beyond it, or None when even the median does not."""
    best = None
    for p in TAIL_PERCENTILES:
        if count - _rank(count, p / 100) >= 10:
            best = p
    return best


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class SpanRecorder:
    """Spans kept in memory: name, start, end and the causing span.

    Times are ``time.monotonic()`` seconds, which on Linux is the
    system-wide CLOCK_MONOTONIC, so spans recorded in different
    processes share one time line.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, **args) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent,
             "args": args}
        )
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str, start: Optional[float] = None, **args):
        """Record a span around the block; ``start`` backdates it (the
        probe's root span starts when the parent spawned the process)."""
        index = self.add(
            name, time.monotonic() if start is None else start, 0.0, **args
        )
        self._stack.append(index)
        try:
            yield self.spans[index]["args"]
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.monotonic()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Layer name -> summed self time (span minus its child spans)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        own = (s["end"] - s["start"]) - child_time[i]
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def chrome_trace(lanes: list[tuple[str, int, list[dict]]]) -> dict:
    """A Perfetto-loadable Chrome trace: one process lane per
    ``(label, pid, spans)``, complete ("X") events in microseconds."""
    events = []
    origin = min(
        (s["start"] for _, _, spans in lanes for s in spans), default=0.0
    )
    for label, pid, spans in lanes:
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": pid, "args": {"name": label}})
        for s in spans:
            events.append({
                "ph": "X", "name": s["name"], "cat": "layer",
                "pid": pid, "tid": pid,
                "ts": round((s["start"] - origin) * 1e6, 3),
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "args": s["args"],
            })
    events.sort(key=lambda e: (e.get("ts", -1.0), -e.get("dur", 0.0)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}
