"""Measurement harness: regenerate the paper's tables.

``table2_rows()`` runs the full Wilson-Lam analysis over the benchmark
suite and reports the paper's columns (lines, procedures, analysis seconds,
average PTFs per procedure) next to the paper's own numbers.

``table3_rows()`` runs the parallelizer + machine model over the two
numeric programs and reports (% parallel, average ms per loop, speedup on
2 and on 4 processors).

``invocation_rows()`` reproduces the §7 comparison of invocation-graph
sizes against PTF counts.

Fault isolation
---------------

A batch run over the whole suite must not die because one program does:
``table2_rows`` runs each benchmark under a per-program ``try/except``,
turning a crash into an error row with the exception in
``Table2Row.error``.  ``per_program_timeout=SECONDS``
goes further and runs every program in its own subprocess (``python -m
repro.bench.harness --row ...``), so a hung or memory-exploding analysis
is killed by the OS without taking the harness down.  Programs whose
analysis degraded (guard trips, quarantines — see ``docs/ROBUSTNESS.md``)
report the record count in ``Table2Row.degraded``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from ..analysis.engine import AnalyzerOptions, options_from_payload, options_payload
from ..analysis.results import AnalysisResult, run_analysis
from ..baselines.invocation import build_invocation_graph
from ..clients.machine import MachineModel, ProgramTiming
from ..clients.parallel import Parallelizer
from ..frontend.parser import load_program
from ..ratio import safe_ratio
from .programs import PROGRAMS, BenchmarkProgram, by_name, load_source

__all__ = [
    "Table2Row",
    "table2_rows",
    "table2_text",
    "table3_rows",
    "table3_text",
    "invocation_rows",
    "analyze_benchmark",
]


@dataclass
class Table2Row:
    name: str
    lines: int
    procedures: int
    seconds: float
    avg_ptfs: float
    paper: BenchmarkProgram
    #: fraction of memoized sparse lookups answered from cache (None
    #: when the memo was never probed, and on error rows)
    cache_hit_rate: Optional[float] = None
    #: dominator-tree steps actually walked (cache misses only)
    dom_walk_steps: int = 0
    #: non-empty when the program crashed or timed out under the
    #: fault-isolated harness; measurement columns are zero then
    error: str = ""
    #: number of degradation records the analysis accumulated (0 = clean)
    degraded: int = 0
    #: degradation detail for degraded rows: quarantined procedures and
    #: one human-readable reason per record (None on clean/error rows)
    degradation: Optional[dict] = None

    @property
    def status(self) -> str:
        """``ok`` | ``degraded`` | ``error`` — the row's outcome class."""
        if self.error:
            return "error"
        if self.degraded:
            return "degraded"
        return "ok"

    def display(self) -> str:
        if self.error:
            return f"{self.name:<12} ERROR: {self.error}"
        hit = (
            "-" if self.cache_hit_rate is None
            else f"{self.cache_hit_rate * 100:.1f}%"
        )
        # thousands separators keep the column readable (and aligned) once
        # dom_walk_steps crosses 999,999 on the larger benchmarks
        out = (
            f"{self.name:<12} {self.lines:>6,} {self.procedures:>6} "
            f"{self.seconds:>9.3f} {self.avg_ptfs:>6.2f} "
            f"{hit:>6} {self.dom_walk_steps:>11,}   "
            f"(paper: {self.paper.paper_lines:>5} lines, "
            f"{self.paper.paper_procedures:>3} procs, "
            f"{self.paper.paper_seconds:>6.2f}s, "
            f"{self.paper.paper_avg_ptfs:.2f} PTFs)"
        )
        if self.degraded:
            out += f" [degraded:{self.degraded}]"
        return out

    def as_dict(self) -> dict:
        """JSON-serializable row (``repro table2 --json``)."""
        out = {
            "name": self.name,
            "lines": self.lines,
            "procedures": self.procedures,
            "seconds": round(self.seconds, 6),
            "avg_ptfs": round(self.avg_ptfs, 4),
            "cache_hit_rate": self.cache_hit_rate,
            "dom_walk_steps": self.dom_walk_steps,
            "status": self.status,
            "paper": {
                "lines": self.paper.paper_lines,
                "procedures": self.paper.paper_procedures,
                "seconds": self.paper.paper_seconds,
                "avg_ptfs": self.paper.paper_avg_ptfs,
            },
        }
        # keys stay additive: error/degradation detail only on non-ok
        # rows, so consumers of the clean-run JSON see no churn beyond
        # the (always-present) status field
        if self.error:
            out["error"] = self.error
        if self.degraded:
            out["degraded"] = self.degraded
        if self.degradation:
            out["degradation"] = self.degradation
        return out


def analyze_benchmark(
    name: str, options: Optional[AnalyzerOptions] = None
) -> AnalysisResult:
    source = load_source(name)
    program = load_program(source, f"{name}.c", name)
    return run_analysis(program, options)


def _row_from_result(prog: BenchmarkProgram, result: AnalysisResult) -> Table2Row:
    stats = result.stats()
    metrics = result.analyzer.metrics
    report = result.degradation
    degraded = len(report.records) + len(report.frontend)
    degradation = None
    if degraded:
        degradation = {
            "quarantined": sorted(report.quarantined),
            "reasons": report.reasons(),
        }
    return Table2Row(
        name=prog.name,
        lines=stats.source_lines,
        procedures=stats.procedures,
        seconds=stats.analysis_seconds,
        avg_ptfs=stats.avg_ptfs,
        paper=prog,
        cache_hit_rate=safe_ratio(
            metrics.cache_hits, metrics.cache_hits + metrics.cache_misses
        ),
        dom_walk_steps=metrics.dom_walk_steps,
        degraded=degraded,
        degradation=degradation,
    )


def _error_row(prog: BenchmarkProgram, error: str) -> Table2Row:
    return Table2Row(
        name=prog.name, lines=0, procedures=0, seconds=0.0,
        avg_ptfs=0.0, paper=prog, error=error,
    )


def _run_isolated(
    cmd: list[str], timeout: float, env: dict
) -> tuple[int, str, str]:
    """Run ``cmd`` in its own session; on timeout kill the whole process
    **group**.

    ``subprocess.run(timeout=...)`` kills only the direct child — a
    grandchild (anything the analysis ever spawns, or a future child
    that forks workers of its own) keeps running after the harness has
    already reported an ERROR row.  ``start_new_session=True`` makes the
    child a process-group leader, so ``os.killpg`` on expiry reaps the
    whole tree.  Raises :class:`subprocess.TimeoutExpired` like
    ``subprocess.run`` would.
    """
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (OSError, AttributeError):  # pragma: no cover - group gone
            proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, err


def _subprocess_row(
    prog: BenchmarkProgram,
    timeout: float,
    options: Optional[AnalyzerOptions],
) -> Table2Row:
    """Run one benchmark in its own interpreter; kill it (and every
    process it spawned) on timeout."""
    import repro

    payload = {"name": prog.name}
    opt_payload = options_payload(options)
    if opt_payload:
        payload["options"] = opt_payload
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    # -c (not -m) so runpy does not re-execute an already-imported module
    cmd = [
        sys.executable,
        "-c",
        "import sys; from repro.bench.harness import _child_row; "
        "sys.exit(_child_row(sys.argv[1]))",
        json.dumps(payload),
    ]
    try:
        returncode, stdout, stderr = _run_isolated(cmd, timeout, env)
    except subprocess.TimeoutExpired:
        return _error_row(prog, f"timeout after {timeout:g}s")
    if returncode != 0:
        tail = (stderr or "").strip().splitlines()
        detail = tail[-1] if tail else f"exit status {returncode}"
        return _error_row(prog, detail)
    data = json.loads(stdout)
    return Table2Row(
        name=prog.name,
        lines=data["lines"],
        procedures=data["procedures"],
        seconds=data["seconds"],
        avg_ptfs=data["avg_ptfs"],
        paper=prog,
        cache_hit_rate=data["cache_hit_rate"],
        dom_walk_steps=data["dom_walk_steps"],
        degraded=data.get("degraded", 0),
        degradation=data.get("degradation"),
    )


def _parallel_rows(
    progs: list[BenchmarkProgram],
    options: Optional[AnalyzerOptions],
    jobs: int,
) -> list[Table2Row]:
    """The whole batch through the parallel driver — one worker process
    per benchmark program, rows merged back in suite order."""
    from ..analysis.parallel import AnalysisTask, run_batch

    tasks = [
        AnalysisTask(
            name=prog.name,
            source=load_source(prog.name),
            filename=f"{prog.name}.c",
            options=options_payload(options),
        )
        for prog in progs
    ]
    batch = run_batch(tasks, jobs=jobs)
    rows = []
    for prog, bundle in zip(progs, batch.results):
        if bundle.get("error"):
            rows.append(_error_row(prog, bundle["error"]))
            continue
        rows.append(
            Table2Row(
                name=prog.name,
                lines=bundle["lines"],
                procedures=bundle["procedures"],
                seconds=bundle["analysis_seconds"],
                avg_ptfs=bundle["avg_ptfs"],
                paper=prog,
                cache_hit_rate=bundle["cache_hit_rate"],
                dom_walk_steps=bundle["dom_walk_steps"],
                degraded=bundle.get("degraded", 0),
                degradation=bundle.get("degradation"),
            )
        )
    return rows


def table2_rows(
    names: Optional[list[str]] = None,
    options: Optional[AnalyzerOptions] = None,
    per_program_timeout: Optional[float] = None,
    jobs: int = 1,
) -> list[Table2Row]:
    progs = [p for p in PROGRAMS if names is None or p.name in names]
    if jobs > 1:
        # worker processes already give per-program fault isolation;
        # per_program_timeout applies to the sequential paths only
        return _parallel_rows(progs, options, jobs)
    rows = []
    for prog in progs:
        if per_program_timeout is not None:
            rows.append(_subprocess_row(prog, per_program_timeout, options))
            continue
        try:
            result = analyze_benchmark(prog.name, options)
        except Exception as exc:  # noqa: BLE001 - fault isolation by design
            rows.append(_error_row(prog, f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(_row_from_result(prog, result))
    return rows


def table2_text(rows: Optional[list[Table2Row]] = None) -> str:
    if rows is None:
        rows = table2_rows()
    lines = [
        "Table 2: Benchmark and Analysis Measurements",
        f"{'Benchmark':<12} {'Lines':>6} {'Procs':>6} {'Secs':>9} {'PTFs':>6} "
        f"{'Hit%':>6} {'DomSteps':>11}",
    ]
    lines.extend(r.display() for r in rows)
    good = [r for r in rows if not r.error]
    avg = sum(r.avg_ptfs for r in good) / len(good) if good else 0.0
    lines.append(f"{'(suite avg PTFs/proc)':<37} {avg:>6.2f}")
    failed = len(rows) - len(good)
    if failed:
        lines.append(f"({failed} of {len(rows)} programs failed; see ERROR rows)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------


def table3_rows(
    names: tuple[str, ...] = ("alvinn", "ear"),
    model: Optional[MachineModel] = None,
) -> list[ProgramTiming]:
    model = model or MachineModel()
    out: list[ProgramTiming] = []
    for name in names:
        prog = by_name(name)
        source = load_source(name)
        analysis = analyze_benchmark(name)
        par = Parallelizer(source, alias_oracle=analysis, filename=f"{name}.c")
        par.run()
        loops = par.all_loops()
        invocations = {
            l.line: (prog.table3_invocations or 1) for l in loops
        }
        out.append(model.time_program(name, loops, invocations))
    return out


def table3_text(rows: Optional[list[ProgramTiming]] = None) -> str:
    if rows is None:
        rows = table3_rows()
    paper = {"alvinn": (97.7, 7.4, 1.95, 3.50), "ear": (85.8, 0.2, 1.42, 1.63)}
    lines = [
        "Table 3: Measurements of Parallelized Programs",
        f"{'Program':<10} {'%Par':>6} {'ms/loop':>8} {'S(2)':>6} {'S(4)':>6}",
    ]
    for r in rows:
        name, pct, avg, s2, s4 = r.row()
        p = paper.get(name)
        extra = (
            f"   (paper: {p[0]:.1f}% {p[1]:.1f}ms {p[2]:.2f} {p[3]:.2f})"
            if p
            else ""
        )
        lines.append(f"{name:<10} {pct:>6.1f} {avg:>8.2f} {s2:>6.2f} {s4:>6.2f}{extra}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# §7 invocation-graph comparison
# ---------------------------------------------------------------------------


def invocation_rows(names: Optional[list[str]] = None, limit: int = 2_000_000):
    """(name, procedures, invocation-graph nodes, total PTFs) per program."""
    out = []
    for prog in PROGRAMS:
        if names is not None and prog.name not in names:
            continue
        source = load_source(prog.name)
        program = load_program(source, f"{prog.name}.c", prog.name)
        graph = build_invocation_graph(program, limit=limit)
        analysis = run_analysis(program)
        stats = analysis.stats()
        out.append(
            {
                "name": prog.name,
                "procedures": stats.procedures,
                "invocation_nodes": graph.nodes,
                "truncated": graph.truncated,
                "total_ptfs": stats.total_ptfs,
                "avg_ptfs": stats.avg_ptfs,
            }
        )
    return out


# ---------------------------------------------------------------------------
# subprocess entry point (fault-isolated batch mode)
# ---------------------------------------------------------------------------


def _child_row(payload_json: str) -> int:
    """``python -m repro.bench.harness --row '{...}'``: analyze one
    benchmark and print its measurement columns as JSON on stdout.

    The parent (:func:`_subprocess_row`) uses this so a crash, hang, or
    runaway allocation in one benchmark is contained by process isolation
    and the subprocess timeout.
    """
    payload = json.loads(payload_json)
    options = None
    if payload.get("options"):
        options = options_from_payload(payload["options"])
    result = analyze_benchmark(payload["name"], options)
    row = _row_from_result(by_name(payload["name"]), result)
    print(json.dumps({
        "lines": row.lines,
        "procedures": row.procedures,
        "seconds": row.seconds,
        "avg_ptfs": row.avg_ptfs,
        "cache_hit_rate": row.cache_hit_rate,
        "dom_walk_steps": row.dom_walk_steps,
        "degraded": row.degraded,
        "degradation": row.degradation,
    }))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.bench.harness",
        description="Fault-isolated Table 2 batch runner",
    )
    parser.add_argument("--row", metavar="JSON",
                        help="(internal) analyze one benchmark, print row JSON")
    parser.add_argument("--names", help="comma-separated subset of benchmarks")
    parser.add_argument("--per-program-timeout", type=float, metavar="SECONDS",
                        help="run each benchmark in its own subprocess, "
                             "killed (whole process group) after SECONDS")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="analyze benchmarks in N worker processes "
                             "(deterministic merge; 1 = sequential)")
    parser.add_argument("--json", action="store_true",
                        help="emit rows as JSON instead of the text table")
    args = parser.parse_args(argv)
    if args.row is not None:
        return _child_row(args.row)
    names = args.names.split(",") if args.names else None
    batch_start = time.perf_counter()
    rows = table2_rows(
        names=names,
        per_program_timeout=args.per_program_timeout,
        jobs=args.jobs,
    )
    batch_seconds = time.perf_counter() - batch_start
    if args.json:
        print(json.dumps([r.as_dict() for r in rows], indent=2, sort_keys=True))
    else:
        print(table2_text(rows))
        if args.jobs > 1:
            print(f"(batch: {batch_seconds:.3f}s wall with --jobs {args.jobs})")
    return 1 if any(r.error for r in rows) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
