"""The parallel analysis driver (``repro analyze --jobs N``).

The unit of parallel work is one *program*: each task parses, lowers and
analyzes one translation-unit group in its own worker process and ships
back a pickle-clean result bundle — the canonical snapshot (digest
included), the Table-2 measurement columns, the degradation summary, and
the program's SCC shard plan (:mod:`repro.analysis.scc`).  The parent
merges bundles **in task order**, so the batch output and the recorded
digests are deterministic regardless of which worker finishes first.

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
change the per-procedure PTF payload lists the digest hashes.  The shard
plan each worker computes (SCC condensation, bottom-up waves) is the
schedule a future context-free summary phase would execute; until then
it is reported, not dispatched.  See docs/PARALLEL.md.
"""

from __future__ import annotations

import os
import time
from contextlib import suppress
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

__all__ = [
    "AnalysisTask",
    "BatchResult",
    "run_batch",
    "default_jobs",
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
    #: parallel observatory (``--profile-parallel``): the worker runs
    #: with its own Tracer + TelemetryRegistry and ships the trace
    #: events, the clock calibration record, the telemetry payload, the
    #: per-procedure self-times and the full shard plan back in the
    #: bundle.  Results and digests stay bit-identical — the profile is
    #: pure instrumentation.
    profile: bool = False
    #: task position in the batch (stamped by run_batch; lane ordering
    #: and queue-wait attribution)
    index: int = 0
    #: ``time.time_ns()`` at dispatch (stamped by run_batch); the
    #: worker's queue-wait is its tracer anchor minus this
    dispatched_ns: Optional[int] = None
    #: when set (and profiling), the worker writes its own JSONL trace
    #: to ``<trace_dir>/<name>.worker.jsonl`` — calibration record
    #: included — in addition to shipping events in the bundle
    trace_dir: Optional[str] = None


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

    With ``task.profile`` the worker additionally runs under its own
    :class:`~repro.diagnostics.trace.Tracer` (clock-calibration record
    first, a ``worker.task`` span around the whole task, the engine's
    full span tree nested inside) and a private
    :class:`~repro.diagnostics.telemetry.TelemetryRegistry`, shipping
    both back as plain data in ``bundle["profile"]`` — analysis results
    and digests stay bit-identical (instrumentation never feeds the
    solution).
    """
    started = time.perf_counter()
    out: dict = {"name": task.name, "pid": os.getpid()}
    tracer = registry = None
    queue_wait_ms: Optional[float] = None
    phase_ms: dict[str, float] = {}
    if task.profile:
        from ..diagnostics.telemetry import TelemetryRegistry
        from ..diagnostics.trace import Tracer

        tracer = Tracer()
        registry = TelemetryRegistry()
        tracer.instant("clock.calibrate", "worker", **tracer.calibration())
        if task.dispatched_ns is not None:
            queue_wait_ms = max(
                0.0, (tracer.wall_anchor_ns - task.dispatched_ns) / 1e6
            )
        tracer.instant(
            "worker.start", "worker", task=task.name, index=task.index,
            pid=out["pid"], queue_wait_ms=queue_wait_ms,
        )
        tracer.begin(
            "worker.task", "worker", task=task.name, index=task.index,
            pid=out["pid"],
        )
    try:
        from ..diagnostics.snapshot import build_snapshot
        from ..analysis.results import run_analysis
        from .engine import options_from_payload
        from .scc import build_plan, static_call_graph

        t_phase = time.perf_counter()
        program = _load_task_program(task)
        phase_ms["load"] = (time.perf_counter() - t_phase) * 1000.0
        if "main" not in program.procedures:
            faults = [f.render() for f in program.frontend_failures]
            out["error"] = "no analyzable main procedure"
            out["frontend_faults"] = faults
            out["seconds"] = time.perf_counter() - started
            _finish_worker_profile(
                task, out, tracer, registry, queue_wait_ms, phase_ms
            )
            return out
        plan = build_plan(static_call_graph(program))
        if task.options or task.profile:
            options = options_from_payload(task.options)
        else:
            options = None
        if tracer is not None:
            options.trace = tracer
        t_phase = time.perf_counter()
        result = run_analysis(program, options)
        phase_ms["analyze"] = (time.perf_counter() - t_phase) * 1000.0
        t_phase = time.perf_counter()
        snapshot = build_snapshot(
            result, options=options, program_name=task.name,
            include_solution=True,
        )
        phase_ms["snapshot"] = (time.perf_counter() - t_phase) * 1000.0
        stats = result.stats()
        report = result.degradation
        out.update(
            {
                "snapshot": snapshot,
                "digest": snapshot["digest"]["program"],
                "shard_plan": plan.stats(),
                "lines": stats.source_lines,
                "procedures": stats.procedures,
                "analysis_seconds": stats.analysis_seconds,
                "total_ptfs": stats.total_ptfs,
                "avg_ptfs": stats.avg_ptfs,
                "cache_hit_rate": result.analyzer.metrics.cache_hit_rate(),
                "dom_walk_steps": result.analyzer.metrics.dom_walk_steps,
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
        if task.profile:
            out["profile_data"] = {
                "plan": plan.to_payload(),
                "proc_self_seconds": {
                    name: round(seconds, 9)
                    for name, seconds in
                    result.analyzer.metrics.proc_self_seconds.items()
                },
            }
        if task.build_store:
            from ..query.store import build_store

            out["store"] = build_store(
                result,
                options=options,
                program_name=task.name,
                sources=list(task.files) or None,
            )
    except Exception as exc:  # noqa: BLE001 - fault isolation by design
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["seconds"] = time.perf_counter() - started
    _finish_worker_profile(task, out, tracer, registry, queue_wait_ms, phase_ms)
    return out


def _finish_worker_profile(
    task: AnalysisTask,
    out: dict,
    tracer,
    registry,
    queue_wait_ms: Optional[float],
    phase_ms: dict[str, float],
) -> None:
    """Close the worker span, record the worker-side telemetry, attach
    the profile transport block, and (when asked) write the worker's own
    JSONL trace file.  No-op without profiling."""
    if tracer is None:
        return
    tracer.end("worker.task", "worker", seconds=round(out["seconds"], 6),
               error=out.get("error", ""))
    # the pickle-time histogram measures shipping the *data* bundle (the
    # profile block itself is not part of the non-profiled payload)
    import pickle

    t0 = time.perf_counter()
    try:
        payload_bytes = len(
            pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL)
        )
        pickle_ms = (time.perf_counter() - t0) * 1000.0
    except Exception:  # pragma: no cover - unpicklable bundles never ship
        payload_bytes = None
        pickle_ms = None
    if queue_wait_ms is not None:
        registry.histogram("parallel.queue_wait_ms").record(queue_wait_ms)
    for phase, ms in phase_ms.items():
        registry.histogram(f"parallel.{phase}_ms").record(ms)
    registry.histogram("parallel.run_ms").record(out["seconds"] * 1000.0)
    if pickle_ms is not None:
        registry.histogram("parallel.pickle_ms").record(pickle_ms)
    registry.counter("parallel.tasks").inc()
    if out.get("error"):
        registry.counter("parallel.errors").inc()
    profile_data = out.pop("profile_data", None) or {}
    out["profile"] = dict(
        profile_data,
        index=task.index,
        calibration=tracer.calibration(),
        events=tracer.events,
        telemetry=registry.to_payload(),
        queue_wait_ms=queue_wait_ms,
        pickle_ms=pickle_ms,
        payload_bytes=payload_bytes,
    )
    if task.trace_dir:
        with suppress(OSError):
            tracer.save_jsonl(
                os.path.join(task.trace_dir, f"{task.name}.worker.jsonl")
            )


@dataclass
class BatchResult:
    """Merged outcome of one parallel batch, in task order."""

    results: list[dict]
    jobs: int
    workers: int
    elapsed_seconds: float
    #: parent-side registry the worker telemetry payloads were folded
    #: into (``--profile-parallel``); None when profiling was off
    telemetry: Optional[object] = None
    #: merged-trace lane map ``{worker pid: tid}`` (empty without a
    #: tracer or without profiling)
    lanes: dict = field(default_factory=dict)

    @property
    def errors(self) -> list[dict]:
        return [r for r in self.results if r.get("error")]

    @property
    def partial(self) -> bool:
        return any(r.get("partial") for r in self.results)

    def stats(self) -> dict:
        """The batch-level measurement record (metrics + trajectory)."""
        good = [r for r in self.results if not r.get("error")]
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
            # (docs/OBSERVABILITY.md §6)
            "utilization": (
                round(worker_seconds / denom, 4) if denom > 0 else None
            ),
            "critical_path_seconds": round(
                max((r.get("seconds", 0.0) for r in self.results),
                    default=0.0),
                6,
            ),
            "shards": sum(
                r.get("shard_plan", {}).get("shards", 0) for r in good
            ),
            "recursive_shards": sum(
                r.get("shard_plan", {}).get("recursive_shards", 0)
                for r in good
            ),
        }


def default_jobs() -> int:
    return os.cpu_count() or 1


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
    progress: Optional[Callable[[dict], None]] = None,
    profile: bool = False,
    worker_trace_dir: Optional[str] = None,
    telemetry=None,
) -> BatchResult:
    """Analyze ``tasks`` with up to ``jobs`` worker processes.

    Results come back in task order (deterministic merge).  ``jobs=1``
    runs everything in-process — the sequential baseline.  ``tracer``
    (a :class:`~repro.diagnostics.trace.Tracer`) records the batch span
    and one dispatch/done instant per task; ``progress`` is called with
    each bundle as it is merged.

    ``profile=True`` turns on the parallel observatory
    (docs/OBSERVABILITY.md §6): every worker runs with its own tracer
    and telemetry registry, the parent folds worker telemetry into
    ``telemetry`` (a :class:`TelemetryRegistry`, created when not
    passed) with the exact histogram bucket-merge, and — when ``tracer``
    is given — merges every worker's events onto the parent timeline,
    one lane per worker process (``BatchResult.lanes``).
    ``worker_trace_dir`` additionally makes each worker write its own
    JSONL trace file there.  Results and digests are bit-identical with
    profiling on or off.
    """
    jobs = max(1, min(jobs, len(tasks))) if tasks else 1
    if profile:
        if telemetry is None:
            from ..diagnostics.telemetry import TelemetryRegistry

            telemetry = TelemetryRegistry()
        if worker_trace_dir:
            os.makedirs(worker_trace_dir, exist_ok=True)
    else:
        telemetry = None
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin("parallel", "driver", jobs=jobs, tasks=len(tasks))
    results: list[dict] = []
    payloads: list[dict] = []
    try:
        if jobs == 1:
            for i, task in enumerate(tasks):
                if profile:
                    task = replace(
                        task, profile=True, index=i,
                        dispatched_ns=time.time_ns(),
                        trace_dir=worker_trace_dir,
                    )
                if tracer is not None:
                    tracer.instant(
                        "shard.dispatch", "driver", task=task.name, index=i
                    )
                bundle = _worker_run(task)
                _merge_bundle(
                    tracer, telemetry, progress, bundle, i, results, payloads
                )
        else:
            if profile:
                tasks = [
                    replace(
                        task, profile=True, index=i,
                        dispatched_ns=time.time_ns(),
                        trace_dir=worker_trace_dir,
                    )
                    for i, task in enumerate(tasks)
                ]
            ctx = _pool_context()
            with ctx.Pool(processes=jobs) as pool:
                if tracer is not None:
                    for i, task in enumerate(tasks):
                        tracer.instant(
                            "shard.dispatch", "driver",
                            task=task.name, index=i,
                        )
                for i, bundle in enumerate(pool.imap(_worker_run, tasks)):
                    _merge_bundle(
                        tracer, telemetry, progress, bundle, i, results,
                        payloads,
                    )
    finally:
        if tracer is not None:
            tracer.end("parallel", "driver", tasks=len(results))
    elapsed = time.perf_counter() - start
    lanes: dict[int, int] = {}
    if payloads and tracer is not None:
        from ..diagnostics.trace import merge_worker_events

        lanes = merge_worker_events(tracer, payloads)
    if telemetry is not None:
        _record_pool_telemetry(telemetry, results, payloads, jobs, elapsed,
                               lanes)
    return BatchResult(
        results=results,
        jobs=jobs,
        workers=jobs,
        elapsed_seconds=elapsed,
        telemetry=telemetry,
        lanes=lanes,
    )


#: a dispatched task whose queue wait exceeds this was blocked behind a
#: fully busy pool (the pool-saturation counter's threshold)
SATURATION_QUEUE_WAIT_MS = 1.0


def _merge_bundle(
    tracer, telemetry, progress, bundle: dict, index: int,
    results: list[dict], payloads: list[dict],
) -> None:
    """Fold one arriving worker bundle into the parent (task order):
    telemetry payload merge, trace bookkeeping (``shard.done`` instant +
    a ``merge`` complete event covering the parent-side work), progress
    callback."""
    merge_start_us = tracer.now_us() if tracer is not None else 0.0
    t0 = time.perf_counter()
    prof = bundle.get("profile")
    if prof is not None:
        if telemetry is not None:
            telemetry.merge_payload(prof.get("telemetry", {}))
        payloads.append(prof)
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
        if prof is not None:
            merge_ms = (time.perf_counter() - t0) * 1000.0
            tracer.complete(
                "merge", "driver", merge_start_us, merge_ms * 1000.0,
                task=bundle.get("name"), index=index,
            )
            if telemetry is not None:
                telemetry.histogram("parallel.merge_ms").record(merge_ms)
    elif prof is not None and telemetry is not None:
        telemetry.histogram("parallel.merge_ms").record(
            (time.perf_counter() - t0) * 1000.0
        )
    if progress is not None:
        progress(bundle)


def _record_pool_telemetry(
    telemetry, results: list[dict], payloads: list[dict], jobs: int,
    elapsed: float, lanes: dict[int, int],
) -> None:
    """The parent-side pool gauges/counters: overall and per-worker
    utilization, pool-saturation count (tasks that measurably waited in
    the queue), worker count."""
    telemetry.gauge("parallel.jobs").set(jobs)
    telemetry.gauge("parallel.programs").set(len(results))
    saturated = sum(
        1 for p in payloads
        if (p.get("queue_wait_ms") or 0.0) > SATURATION_QUEUE_WAIT_MS
    )
    if saturated:
        telemetry.counter("parallel.pool_saturated").inc(saturated)
    if elapsed <= 0:
        return
    worker_seconds = sum(r.get("seconds", 0.0) for r in results)
    telemetry.gauge("parallel.utilization").set(
        round(worker_seconds / (jobs * elapsed), 4)
    )
    busy: dict[int, float] = {}
    for r in results:
        pid = r.get("pid")
        if pid is not None:
            busy[pid] = busy.get(pid, 0.0) + r.get("seconds", 0.0)
    for rank, pid in enumerate(sorted(busy)):
        lane = lanes.get(pid, rank + 2)
        telemetry.gauge(f"parallel.worker_utilization.lane{lane}").set(
            round(busy[pid] / elapsed, 4)
        )
