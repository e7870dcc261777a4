"""The parallel analysis driver (``repro analyze --jobs N``).

The unit of parallel work is one *program*: each task parses, lowers and
analyzes one translation-unit group in its own worker process and ships
back a pickle-clean result bundle — the canonical snapshot (digest
included), the Table-2 measurement columns and the degradation summary.
The parent merges bundles **in task order**, so the batch output and the
recorded digests are deterministic regardless of which worker finishes
first.

Determinism argument (docs/PARALLEL.md):

* every worker runs the *unchanged sequential algorithm* on a complete
  program — no analysis state crosses process boundaries, so there is
  nothing to race on;
* the canonical snapshot digest is normalization-stable across processes
  (name-space-normalized, everywhere-sorted, uid-free — the
  :mod:`repro.diagnostics.snapshot` contract), so a worker's digest is
  bit-identical to what a sequential in-process run of the same program
  produces;
* the merge is positional: results are yielded in submission order
  (``imap``), never completion order.

``jobs=1`` runs the same task list in-process with zero pool overhead —
that is the sequential baseline the digest-equality acceptance test and
the CI parallel job compare against.

Why programs and not procedure shards?  The PTF scheme is *demand-driven
top-down*: a callee's contexts (input alias patterns) are discovered
while its callers are being evaluated, so a bottom-up worker cannot know
which PTFs to build, and any context-free over-approximation would
change the per-procedure PTF payload lists the digest hashes.  See
docs/PARALLEL.md.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "AnalysisTask",
    "BatchResult",
    "run_batch",
]


@dataclass(frozen=True)
class AnalysisTask:
    """One program to analyze — fully described by picklable values.

    Exactly one of ``files`` (paths re-read in the worker) or ``source``
    (inline text, used by the bench harness and tests) is set.
    """

    name: str
    files: tuple[str, ...] = ()
    source: Optional[str] = None
    filename: Optional[str] = None
    #: scalar AnalyzerOptions overrides
    #: (:func:`repro.analysis.engine.options_payload`)
    options: dict = field(default_factory=dict)
    #: also build the persistent query store (``repro index --jobs``)
    build_store: bool = False


def _load_task_program(task: AnalysisTask):
    from ..frontend.parser import load_program, load_project_files

    if task.source is not None:
        return load_program(
            task.source, task.filename or f"{task.name}.c", task.name
        )
    strict = bool(task.options.get("strict"))
    return load_project_files(
        list(task.files), name=task.name, tolerant=not strict
    )


def _worker_run(task: AnalysisTask) -> dict:
    """Analyze one task start-to-finish; always returns a bundle dict.

    Top-level (picklable under spawn); exceptions become ``error``
    bundles so one broken program never takes the batch down — the
    fault-isolation discipline of ``bench.harness``.
    """
    started = time.perf_counter()
    out: dict = {"name": task.name, "pid": os.getpid()}
    try:
        from ..diagnostics.snapshot import build_snapshot
        from ..analysis.results import run_analysis
        from ..ratio import safe_ratio
        from .engine import options_from_payload
        from .demand import fresh_analysis_state

        # a pool worker takes several tasks: start each from the uid
        # counters of a fresh process, so a store's PTF numbers do not
        # depend on which worker ran it or what that worker ran before
        fresh_analysis_state()
        program = _load_task_program(task)
        if "main" not in program.procedures:
            faults = [f.render() for f in program.frontend_failures]
            out["error"] = "no analyzable main procedure"
            out["frontend_faults"] = faults
            out["seconds"] = time.perf_counter() - started
            return out
        options = options_from_payload(task.options) if task.options else None
        result = run_analysis(program, options)
        snapshot = build_snapshot(
            result, options=options, program_name=task.name,
            include_solution=True,
        )
        stats = result.stats()
        metrics = result.analyzer.metrics
        report = result.degradation
        out.update(
            {
                "snapshot": snapshot,
                "digest": snapshot["digest"]["program"],
                "lines": stats.source_lines,
                "procedures": stats.procedures,
                "analysis_seconds": stats.analysis_seconds,
                "total_ptfs": stats.total_ptfs,
                "avg_ptfs": stats.avg_ptfs,
                "cache_hit_rate": safe_ratio(
                    metrics.cache_hits,
                    metrics.cache_hits + metrics.cache_misses,
                ),
                "dom_walk_steps": metrics.dom_walk_steps,
                "degraded": len(report.records) + len(report.frontend),
                "degradation": (
                    {
                        "quarantined": sorted(report.quarantined),
                        "reasons": report.reasons(),
                    }
                    if (report.records or report.frontend)
                    else None
                ),
                "degradation_lines": report.summary_lines()
                if not report.ok
                else [],
                "partial": not report.ok,
            }
        )
        if task.build_store:
            from ..query.store import build_store

            out["store"] = build_store(
                result,
                options=options,
                program_name=task.name,
                sources=list(task.files) or None,
                snapshot=snapshot,
            )
    except Exception as exc:  # noqa: BLE001 - fault isolation by design
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["seconds"] = time.perf_counter() - started
    return out


@dataclass
class BatchResult:
    """Merged outcome of one parallel batch, in task order."""

    results: list[dict]
    jobs: int
    workers: int
    elapsed_seconds: float

    @property
    def errors(self) -> list[dict]:
        return [r for r in self.results if r.get("error")]

    @property
    def partial(self) -> bool:
        return any(r.get("partial") for r in self.results)

    def stats(self) -> dict:
        """The batch-level measurement record (the ``--jobs`` summary)."""
        worker_seconds = sum(r.get("seconds", 0.0) for r in self.results)
        denom = self.jobs * self.elapsed_seconds
        return {
            "jobs": self.jobs,
            "workers": self.workers,
            "programs": len(self.results),
            "errors": len(self.errors),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            # total in-worker wall time; elapsed/worker ratio is the
            # realized parallel speedup the CI job asserts on
            "worker_seconds": round(worker_seconds, 6),
            # fraction of the pool's capacity (jobs x wall) spent inside
            # workers, and the batch's critical path — the slowest
            # single task, which no worker count can compress below
            "utilization": (
                round(worker_seconds / denom, 4) if denom > 0 else None
            ),
            "critical_path_seconds": round(
                max((r.get("seconds", 0.0) for r in self.results),
                    default=0.0),
                6,
            ),
        }


def _pool_context():
    """Prefer fork (cheap, inherits the loaded modules); fall back to
    spawn where fork is unavailable."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def run_batch(
    tasks: list[AnalysisTask],
    jobs: int = 1,
    tracer=None,
) -> BatchResult:
    """Analyze ``tasks`` with up to ``jobs`` worker processes.

    Results come back in task order (deterministic merge).  ``jobs=1``
    runs everything in-process — the sequential baseline.  ``tracer``
    (a :class:`~repro.diagnostics.trace.Tracer`) records the batch span
    and one dispatch/done instant per task.
    """
    jobs = max(1, min(jobs, len(tasks))) if tasks else 1
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin("parallel", "driver", jobs=jobs, tasks=len(tasks))
    results: list[dict] = []

    def dispatch(index: int, task: AnalysisTask) -> None:
        if tracer is not None:
            tracer.instant("shard.dispatch", "driver", task=task.name,
                           index=index)

    def merge(index: int, bundle: dict) -> None:
        results.append(bundle)
        if tracer is not None:
            tracer.instant(
                "shard.done",
                "driver",
                task=bundle.get("name"),
                index=index,
                seconds=round(bundle.get("seconds", 0.0), 6),
                error=bundle.get("error", ""),
            )

    try:
        if jobs == 1:
            for i, task in enumerate(tasks):
                dispatch(i, task)
                merge(i, _worker_run(task))
        else:
            ctx = _pool_context()
            with ctx.Pool(processes=jobs) as pool:
                for i, task in enumerate(tasks):
                    dispatch(i, task)
                for i, bundle in enumerate(pool.imap(_worker_run, tasks)):
                    merge(i, bundle)
    finally:
        if tracer is not None:
            tracer.end("parallel", "driver", tasks=len(results))
    return BatchResult(
        results=results,
        jobs=jobs,
        workers=jobs,
        elapsed_seconds=time.perf_counter() - start,
    )
