"""Benchmark trajectory: the Table 2 suite's history, one entry per run.

The snapshot/diff layer (:mod:`repro.diagnostics.snapshot`) compares two
*runs*; this module compares a run against the suite's own *history*.
``record_trajectory`` appends one entry per Table 2 batch to a JSON file
(default ``BENCH_table2.json``) — revision, timestamp, per-program rows,
suite totals, and the optional tracemalloc peak — and reports drift
against the previous entry so a perf or precision regression shows up the
moment the benchmark lands, not when someone remembers to read the table.

File format (a JSON object, additive keys only)::

    {
      "format": "repro-bench-trajectory/1",
      "entries": [
        {"timestamp": "...", "revision": "abc1234", "rows": [...],
         "totals": {"seconds": ..., "avg_ptfs": ..., "dom_walk_steps": ...,
                    "errors": 0, "degraded": 0, "peak_kb": ...,
                    "jobs": 4}},
        ...
      ]
    }

``totals.jobs`` records the worker-process count of the batch that
produced the entry (absent for the classic sequential harness), so the
trajectory can carry sequential and parallel runs side by side without
their wall-clock columns reading as drift by accident.

Writes are atomic (:func:`repro.ioutil.atomic_write_text`: unique
``<path>.tmp.<pid>`` sibling + ``os.replace``), so a crashed run never
truncates the history and two concurrent ``--record`` batches serialize
to last-replace-wins instead of corrupting each other's temporary.

Drift reporting is deliberately looser than the snapshot differ — the
trajectory is a *trend* instrument, comparing totals and per-program
columns, not canonical solutions.  Thresholds mirror the differ's
defaults (10% relative, small absolute floors).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Optional

from ..ioutil import atomic_write_text
from .harness import Table2Row

__all__ = [
    "DEMAND_TRAJECTORY_FORMAT",
    "DEMAND_TRAJECTORY_PATH",
    "SERVE_TRAJECTORY_FORMAT",
    "SERVE_TRAJECTORY_PATH",
    "TRAJECTORY_FORMAT",
    "TRAJECTORY_PATH",
    "build_demand_entry",
    "build_entry",
    "build_serve_entry",
    "compare_demand_entries",
    "compare_entries",
    "compare_serve_entries",
    "load_demand_trajectory",
    "load_serve_trajectory",
    "load_trajectory",
    "parse_serve_fail_on",
    "record_demand_trajectory",
    "record_serve_trajectory",
    "record_trajectory",
    "serve_gate",
]

TRAJECTORY_FORMAT = "repro-bench-trajectory/1"
TRAJECTORY_PATH = "BENCH_table2.json"

SERVE_TRAJECTORY_FORMAT = "repro-serve-trajectory/1"
SERVE_TRAJECTORY_PATH = "BENCH_serve.json"

DEMAND_TRAJECTORY_FORMAT = "repro-demand-trajectory/1"
DEMAND_TRAJECTORY_PATH = "BENCH_demand.json"

#: suite-total drift below these floors is noise, never reported
_SECONDS_FLOOR = 0.05
_RELATIVE_THRESHOLD = 0.10


def _revision() -> str:
    """The current git revision (short), or ``unknown`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def build_entry(
    rows: list[Table2Row],
    peak_kb: Optional[float] = None,
    revision: Optional[str] = None,
    jobs: Optional[int] = None,
    batch_seconds: Optional[float] = None,
    utilization: Optional[float] = None,
    critical_path_seconds: Optional[float] = None,
) -> dict:
    """One trajectory entry for a finished Table 2 batch.

    ``jobs``/``batch_seconds`` record the parallel harness's worker
    count and whole-batch wall clock (``totals.seconds`` stays the sum
    of in-worker analysis times, comparable across jobs values);
    ``utilization``/``critical_path_seconds`` are the batch columns of
    a ``--jobs > 1`` run: the fraction of pool capacity spent inside
    workers, and the slowest task — the wall-clock floor no worker count
    compresses below."""
    good = [r for r in rows if not r.error]
    totals = {
        "seconds": round(sum(r.seconds for r in good), 6),
        "avg_ptfs": (
            round(sum(r.avg_ptfs for r in good) / len(good), 4) if good else None
        ),
        "dom_walk_steps": sum(r.dom_walk_steps for r in good),
        "errors": len(rows) - len(good),
        "degraded": sum(1 for r in rows if r.degraded),
    }
    if peak_kb is not None:
        totals["peak_kb"] = round(peak_kb, 1)
    if jobs is not None:
        totals["jobs"] = jobs
    if batch_seconds is not None:
        totals["batch_seconds"] = round(batch_seconds, 6)
    if utilization is not None:
        totals["utilization"] = round(utilization, 4)
    if critical_path_seconds is not None:
        totals["critical_path_seconds"] = round(critical_path_seconds, 6)
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "revision": revision if revision is not None else _revision(),
        "rows": [r.as_dict() for r in rows],
        "totals": totals,
    }


def compare_entries(prev: dict, cur: dict) -> list[str]:
    """Human-readable drift lines between two trajectory entries.

    Covers the three things a benchmark trend can move: wall time
    (suite + per program), precision proxy (suite avg PTFs/proc and
    per-program avg PTFs), and outcome class (new errors / degradations).
    Empty list = steady state.
    """
    lines: list[str] = []
    p_tot, c_tot = prev.get("totals", {}), cur.get("totals", {})

    p_sec, c_sec = p_tot.get("seconds"), c_tot.get("seconds")
    if p_sec and c_sec is not None:
        delta = c_sec - p_sec
        if abs(delta) >= _SECONDS_FLOOR and abs(delta) / p_sec >= _RELATIVE_THRESHOLD:
            verb = "slower" if delta > 0 else "faster"
            lines.append(
                f"suite {verb}: {p_sec:.3f}s -> {c_sec:.3f}s "
                f"({delta / p_sec:+.1%}) since {prev.get('revision', '?')}"
            )

    p_avg, c_avg = p_tot.get("avg_ptfs"), c_tot.get("avg_ptfs")
    if p_avg is not None and c_avg is not None and p_avg != c_avg:
        lines.append(f"suite avg PTFs/proc: {p_avg} -> {c_avg}")

    p_peak, c_peak = p_tot.get("peak_kb"), c_tot.get("peak_kb")
    if p_peak and c_peak is not None:
        delta = c_peak - p_peak
        if delta >= 64.0 and delta / p_peak >= _RELATIVE_THRESHOLD:
            lines.append(
                f"heap peak: {p_peak:.0f} KiB -> {c_peak:.0f} KiB "
                f"(+{delta / p_peak:.1%})"
            )

    p_rows = {r["name"]: r for r in prev.get("rows", [])}
    c_rows = {r["name"]: r for r in cur.get("rows", [])}
    for name in sorted(set(p_rows) & set(c_rows)):
        p_row, c_row = p_rows[name], c_rows[name]
        p_status = p_row.get("status", "error" if p_row.get("error") else "ok")
        c_status = c_row.get("status", "error" if c_row.get("error") else "ok")
        if p_status != c_status:
            lines.append(f"{name}: status {p_status} -> {c_status}")
        if p_status == "error" or c_status == "error":
            continue
        if p_row.get("avg_ptfs") != c_row.get("avg_ptfs"):
            lines.append(
                f"{name}: avg PTFs {p_row.get('avg_ptfs')} -> "
                f"{c_row.get('avg_ptfs')}"
            )
        ps, cs = p_row.get("seconds", 0.0), c_row.get("seconds", 0.0)
        if ps and abs(cs - ps) >= _SECONDS_FLOOR and abs(cs - ps) / ps >= _RELATIVE_THRESHOLD:
            verb = "slower" if cs > ps else "faster"
            lines.append(f"{name}: {verb} {ps:.3f}s -> {cs:.3f}s")
    only_prev = sorted(set(p_rows) - set(c_rows))
    only_cur = sorted(set(c_rows) - set(p_rows))
    if only_prev:
        lines.append(f"programs dropped from suite: {', '.join(only_prev)}")
    if only_cur:
        lines.append(f"programs added to suite: {', '.join(only_cur)}")
    return lines


def load_trajectory(path: str = TRAJECTORY_PATH) -> dict:
    """Read the trajectory file; an absent or corrupt file yields a fresh
    empty trajectory (the recorder must never refuse to record because a
    previous run crashed mid-write — that is what the history is *for*)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {"format": TRAJECTORY_FORMAT, "entries": []}
    if (
        not isinstance(data, dict)
        or data.get("format") != TRAJECTORY_FORMAT
        or not isinstance(data.get("entries"), list)
    ):
        return {"format": TRAJECTORY_FORMAT, "entries": []}
    return data


def record_trajectory(
    rows: list[Table2Row],
    path: str = TRAJECTORY_PATH,
    peak_kb: Optional[float] = None,
    revision: Optional[str] = None,
    jobs: Optional[int] = None,
    batch_seconds: Optional[float] = None,
    utilization: Optional[float] = None,
    critical_path_seconds: Optional[float] = None,
) -> tuple[dict, list[str]]:
    """Append one entry for ``rows`` to the trajectory at ``path``.

    Returns ``(entry, drift_lines)`` where ``drift_lines`` compares the
    new entry against the previous last one (empty on the first run or
    steady state).  The write is atomic with a per-process unique
    temporary (:func:`repro.ioutil.atomic_write_text`).
    """
    trajectory = load_trajectory(path)
    entry = build_entry(
        rows,
        peak_kb=peak_kb,
        revision=revision,
        jobs=jobs,
        batch_seconds=batch_seconds,
        utilization=utilization,
        critical_path_seconds=critical_path_seconds,
    )
    drift: list[str] = []
    if trajectory["entries"]:
        drift = compare_entries(trajectory["entries"][-1], entry)
    trajectory["entries"].append(entry)
    payload = json.dumps(trajectory, indent=2, sort_keys=True) + "\n"
    atomic_write_text(path, payload)
    return entry, drift


# -- serve trajectory (BENCH_serve.json; docs/OBSERVABILITY.md §5) --------
#
# The Table 2 trajectory trends the *analyzer*; the serve trajectory
# trends the *daemon*: one entry per ``repro loadtest --record``, carrying
# the load report (qps, latency quantiles, cache hit rate, op mix) plus
# the run's shape (clients, requests).  Same discipline: append-only,
# atomic writes, drift lines against the previous entry — and, new here,
# an explicit CI gate (``--fail-on 'p99:100%,qps:30%'``) that turns a
# latency or throughput regression into a nonzero exit instead of a line
# someone has to notice.

#: serve drift below these floors is noise, never reported
_P99_FLOOR_MS = 0.5
_QPS_FLOOR = 10.0


def build_serve_entry(report: dict, revision: Optional[str] = None) -> dict:
    """One serve-trajectory entry for a finished load-test report
    (the ``LoadReport.as_dict()`` payload, recorded verbatim)."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "revision": revision if revision is not None else _revision(),
        "report": report,
    }


def load_serve_trajectory(path: str = SERVE_TRAJECTORY_PATH) -> dict:
    """Read the serve trajectory; absent/corrupt → fresh empty history
    (same never-refuse-to-record contract as :func:`load_trajectory`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {"format": SERVE_TRAJECTORY_FORMAT, "entries": []}
    if (
        not isinstance(data, dict)
        or data.get("format") != SERVE_TRAJECTORY_FORMAT
        or not isinstance(data.get("entries"), list)
    ):
        return {"format": SERVE_TRAJECTORY_FORMAT, "entries": []}
    return data


def _comparable(prev: dict, cur: dict) -> bool:
    """Entries with different run shapes (clients, per-run request count,
    op mix) measure different workloads; their deltas are not drift."""
    for key in ("clients", "requests"):
        if prev.get(key) != cur.get(key):
            return False
    return prev.get("ops") == cur.get("ops")


def compare_serve_entries(prev: dict, cur: dict) -> list[str]:
    """Human-readable drift lines between two serve entries.

    Covers throughput (qps), tail latency (p50/p99), cache behavior
    (hit rate), and outcome class (new errors).  Entries whose run
    shapes differ produce a single shape line instead of bogus deltas.
    """
    lines: list[str] = []
    p, c = prev.get("report", {}), cur.get("report", {})
    since = prev.get("revision", "?")
    if not _comparable(p, c):
        lines.append(
            f"run shape changed since {since}: "
            f"{p.get('clients')}x{p.get('requests')} -> "
            f"{c.get('clients')}x{c.get('requests')} "
            "(latency/qps deltas not comparable)"
        )
        return lines

    p_qps, c_qps = p.get("qps"), c.get("qps")
    if p_qps and c_qps is not None:
        delta = c_qps - p_qps
        if abs(delta) >= _QPS_FLOOR and abs(delta) / p_qps >= _RELATIVE_THRESHOLD:
            verb = "up" if delta > 0 else "down"
            lines.append(
                f"throughput {verb}: {p_qps:.0f} -> {c_qps:.0f} qps "
                f"({delta / p_qps:+.1%}) since {since}"
            )

    for label in ("p50_ms", "p99_ms"):
        p_ms = (p.get("latency") or {}).get(label)
        c_ms = (c.get("latency") or {}).get(label)
        if p_ms and c_ms is not None:
            delta = c_ms - p_ms
            if abs(delta) >= _P99_FLOOR_MS and abs(delta) / p_ms >= _RELATIVE_THRESHOLD:
                verb = "slower" if delta > 0 else "faster"
                lines.append(
                    f"{label[:-3]} {verb}: {p_ms:.2f}ms -> {c_ms:.2f}ms "
                    f"({delta / p_ms:+.1%}) since {since}"
                )

    p_rate, c_rate = p.get("cache_hit_rate"), c.get("cache_hit_rate")
    if p_rate is not None and c_rate is not None and abs(c_rate - p_rate) >= 0.05:
        lines.append(f"cache hit rate: {p_rate} -> {c_rate}")

    p_err, c_err = p.get("errors", 0), c.get("errors", 0)
    if c_err and c_err != p_err:
        lines.append(f"errors: {p_err} -> {c_err}")
    return lines


def parse_serve_fail_on(spec: Optional[str]) -> Optional[dict[str, float]]:
    """Parse a ``--fail-on`` gate spec like ``p99:100%,qps:30%``.

    ``p99:100%`` = fail when p99 latency worsens by more than 100%
    relative to the previous comparable entry; ``qps:30%`` = fail when
    throughput drops by more than 30%.  Returns ``None`` for ``None``.
    """
    if spec is None:
        return None
    gates: dict[str, float] = {}
    for part in spec.split(","):
        metric, _, pct = part.partition(":")
        metric = metric.strip().lower()
        if metric not in ("p99", "qps"):
            raise ValueError(
                f"unknown gate metric {metric!r} in {spec!r} (use p99, qps)"
            )
        pct = pct.strip().rstrip("%")
        try:
            value = float(pct)
        except ValueError:
            raise ValueError(f"bad gate threshold in {part!r}")
        if value <= 0:
            raise ValueError(f"gate threshold must be positive: {part!r}")
        gates[metric] = value / 100.0
    if not gates:
        raise ValueError(f"empty gate spec: {spec!r}")
    return gates


def serve_gate(
    prev: dict, cur: dict, fail_on: dict[str, float]
) -> list[str]:
    """Gate failures (empty = pass) for ``cur`` against ``prev``.

    The gate only fires between comparable runs (same shape); a shape
    change resets the baseline rather than failing spuriously.
    """
    failures: list[str] = []
    p, c = prev.get("report", {}), cur.get("report", {})
    if not _comparable(p, c):
        return failures
    p99_pct = fail_on.get("p99")
    if p99_pct is not None:
        p_ms = (p.get("latency") or {}).get("p99_ms")
        c_ms = (c.get("latency") or {}).get("p99_ms")
        if p_ms and c_ms is not None:
            worsening = (c_ms - p_ms) / p_ms
            if c_ms - p_ms >= _P99_FLOOR_MS and worsening > p99_pct:
                failures.append(
                    f"p99 latency regressed {worsening:+.1%} "
                    f"({p_ms:.2f}ms -> {c_ms:.2f}ms), gate is {p99_pct:.0%}"
                )
    qps_pct = fail_on.get("qps")
    if qps_pct is not None:
        p_qps, c_qps = p.get("qps"), c.get("qps")
        if p_qps and c_qps is not None:
            drop = (p_qps - c_qps) / p_qps
            if p_qps - c_qps >= _QPS_FLOOR and drop > qps_pct:
                failures.append(
                    f"throughput dropped {drop:.1%} "
                    f"({p_qps:.0f} -> {c_qps:.0f} qps), gate is {qps_pct:.0%}"
                )
    return failures


def record_serve_trajectory(
    report: dict,
    path: str = SERVE_TRAJECTORY_PATH,
    fail_on: Optional[dict[str, float]] = None,
    revision: Optional[str] = None,
) -> tuple[dict, list[str], list[str]]:
    """Append one serve entry for ``report`` to the trajectory at
    ``path``; returns ``(entry, drift_lines, gate_failures)``.

    The entry is recorded even when the gate fails — the history must
    show the regression the gate caught.  Atomic write, same as the
    Table 2 recorder.
    """
    trajectory = load_serve_trajectory(path)
    entry = build_serve_entry(report, revision=revision)
    drift: list[str] = []
    failures: list[str] = []
    if trajectory["entries"]:
        prev = trajectory["entries"][-1]
        drift = compare_serve_entries(prev, entry)
        if fail_on:
            failures = serve_gate(prev, entry, fail_on)
    trajectory["entries"].append(entry)
    payload = json.dumps(trajectory, indent=2, sort_keys=True) + "\n"
    atomic_write_text(path, payload)
    return entry, drift, failures


# -- demand trajectory (BENCH_demand.json; docs/QUERY.md §6) --------------
#
# The serve trajectory trends the daemon; the demand trajectory trends the
# *demand tier*: one entry per ``benchmarks/bench_demand.py --record`` run,
# carrying per-benchmark rows (edit -> first fresh answer seconds, warm
# query latency, speedup vs a full re-index) so a regression in the
# tier's re-index path shows up as a drift line the run it lands.  Same discipline as the other two sections: append-only
# history, atomic writes, never refuse to record.

#: demand drift below these floors is noise, never reported
_DEMAND_SECONDS_FLOOR = 0.02


def build_demand_entry(rows: list[dict], revision: Optional[str] = None) -> dict:
    """One demand-trajectory entry for a finished bench_demand sweep.

    ``rows`` are the per-benchmark dicts the harness produced (name,
    procedures, demand_seconds, warm_query_ms, speedup, equal, error) —
    recorded verbatim, with suite totals alongside."""
    good = [r for r in rows if not r.get("error")]
    totals = {
        "demand_seconds": round(
            sum(r.get("demand_seconds") or 0.0 for r in good), 6
        ),
        "errors": len(rows) - len(good),
        "mismatches": sum(1 for r in good if r.get("equal") is False),
    }
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "revision": revision if revision is not None else _revision(),
        "rows": rows,
        "totals": totals,
    }


def load_demand_trajectory(path: str = DEMAND_TRAJECTORY_PATH) -> dict:
    """Read the demand trajectory; absent/corrupt → fresh empty history
    (same never-refuse-to-record contract as :func:`load_trajectory`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {"format": DEMAND_TRAJECTORY_FORMAT, "entries": []}
    if (
        not isinstance(data, dict)
        or data.get("format") != DEMAND_TRAJECTORY_FORMAT
        or not isinstance(data.get("entries"), list)
    ):
        return {"format": DEMAND_TRAJECTORY_FORMAT, "entries": []}
    return data


def compare_demand_entries(prev: dict, cur: dict) -> list[str]:
    """Human-readable drift lines between two demand entries.

    Covers total demand time, new errors, and new equality mismatches."""
    lines: list[str] = []
    p, c = prev.get("totals", {}), cur.get("totals", {})
    since = prev.get("revision", "?")

    p_sec, c_sec = p.get("demand_seconds"), c.get("demand_seconds")
    if p_sec and c_sec is not None:
        delta = c_sec - p_sec
        if (
            abs(delta) >= _DEMAND_SECONDS_FLOOR
            and abs(delta) / p_sec >= _RELATIVE_THRESHOLD
        ):
            verb = "slower" if delta > 0 else "faster"
            lines.append(
                f"demand analysis {verb}: {p_sec:.3f}s -> {c_sec:.3f}s "
                f"({delta / p_sec:+.1%}) since {since}"
            )

    p_err, c_err = p.get("errors", 0), c.get("errors", 0)
    if c_err and c_err != p_err:
        lines.append(f"errors: {p_err} -> {c_err}")

    c_mis = c.get("mismatches", 0)
    if c_mis:
        lines.append(
            f"EQUALITY MISMATCHES: {c_mis} benchmark(s) where demand "
            "answers diverged from the exhaustive store"
        )
    return lines


def record_demand_trajectory(
    rows: list[dict],
    path: str = DEMAND_TRAJECTORY_PATH,
    revision: Optional[str] = None,
) -> tuple[dict, list[str]]:
    """Append one demand entry for ``rows`` to the trajectory at
    ``path``; returns ``(entry, drift_lines)``.  Atomic write, same as
    the Table 2 recorder."""
    trajectory = load_demand_trajectory(path)
    entry = build_demand_entry(rows, revision=revision)
    drift: list[str] = []
    if trajectory["entries"]:
        drift = compare_demand_entries(trajectory["entries"][-1], entry)
    trajectory["entries"].append(entry)
    payload = json.dumps(trajectory, indent=2, sort_keys=True) + "\n"
    atomic_write_text(path, payload)
    return entry, drift
