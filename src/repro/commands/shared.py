"""The analyzer flags, and the option and output helpers that the
analysis commands (:mod:`.analysis`) share with ``repro index``
(:mod:`.index`)."""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from ..ioutil import out_stream
from . import EXIT_ERROR, EXIT_OK, EXIT_PARTIAL

if TYPE_CHECKING:
    from ..analysis.engine import AnalyzerOptions


def options_from(args: argparse.Namespace) -> AnalyzerOptions:
    from ..analysis.engine import AnalyzerOptions

    opts = AnalyzerOptions(
        external_policy=args.external,
        strong_updates=not args.no_strong_updates,
        heap_context_depth=args.heap_context,
    )
    if getattr(args, "trace_json", None) or getattr(args, "trace_jsonl", None):
        from ..diagnostics import Tracer

        opts.trace = Tracer()
    if getattr(args, "provenance", False):
        opts.provenance = True
    # resource budget / degradation knobs (docs/ROBUSTNESS.md)
    if getattr(args, "deadline", None) is not None:
        opts.deadline_seconds = args.deadline
    if getattr(args, "max_passes", None) is not None:
        opts.max_passes = args.max_passes
    if getattr(args, "max_call_depth", None) is not None:
        opts.max_call_depth = args.max_call_depth
    if getattr(args, "max_ptfs", None) is not None:
        opts.max_ptfs_total = args.max_ptfs
    if getattr(args, "max_state_entries", None) is not None:
        opts.max_state_entries = args.max_state_entries
    if getattr(args, "strict", False):
        opts.strict = True
    if getattr(args, "inject_faults", None):
        from ..diagnostics.faults import FaultPlan

        opts.faults = FaultPlan.from_spec(args.inject_faults)
    return opts


def add_analysis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--external", choices=["havoc", "ignore"], default="havoc",
                   help="policy for unknown external functions")
    p.add_argument("--no-strong-updates", action="store_true",
                   help="disable strong updates (ablation)")
    p.add_argument("--heap-context", type=int, default=0, metavar="K",
                   help="heap naming call-chain depth (default 0: site only)")
    g = p.add_argument_group(
        "robustness", "resource budgets and graceful degradation "
                      "(see docs/ROBUSTNESS.md; exit code 4 = partial result)")
    g.add_argument("--deadline", type=float, metavar="SECONDS",
                   help="wall-clock budget; on expiry remaining work is "
                        "summarized conservatively instead of aborting")
    g.add_argument("--max-passes", type=int, metavar="N",
                   help="per-procedure fixpoint pass budget (default 200)")
    g.add_argument("--max-call-depth", type=int, metavar="N",
                   help="analysis call-stack depth budget (default 200)")
    g.add_argument("--max-ptfs", type=int, metavar="N",
                   help="global PTF-count cap; above it new contexts merge "
                        "into existing PTFs (§8 generalization)")
    g.add_argument("--max-state-entries", type=int, metavar="N",
                   help="per-procedure points-to state size cap")
    g.add_argument("--strict", action="store_true",
                   help="disable graceful degradation: guard trips and "
                        "frontend faults abort with an error (exit 2)")
    g.add_argument("--inject-faults", metavar="SPEC",
                   help="deterministic fault injection for testing, e.g. "
                        "'seed=7,parse=0.2,exhaust=qsort;lookup,"
                        "nonconverge=0.05' (sites: parse, exhaust, "
                        "nonconverge; values are rates or ;-joined names)")


def report_degradation(report) -> None:
    """One line per quarantine/degradation on stderr (grep-friendly)."""
    for line in report.summary_lines():
        print(f"repro: {line}", file=sys.stderr)


def emit_trace(args: argparse.Namespace, tracer) -> None:
    if tracer is None:
        return
    dest = getattr(args, "trace_json", None)
    if dest is not None:
        with out_stream(dest) as fh:
            tracer.write_chrome(fh)
    dest = getattr(args, "trace_jsonl", None)
    if dest is not None:
        with out_stream(dest) as fh:
            tracer.write_jsonl(fh)


def batch_tasks(args: argparse.Namespace, opts, build_store: bool = False):
    """One :class:`AnalysisTask` per FILE argument (``--jobs`` batch
    semantics: every file is its own whole program).  Duplicate basename
    stems are disambiguated positionally so per-program output files
    never collide."""
    import os

    from ..analysis.engine import options_payload
    from ..analysis.parallel import AnalysisTask

    payload = options_payload(opts)
    keep_snapshot = bool(getattr(args, "snapshot_dir", None))
    seen: dict[str, int] = {}
    tasks = []
    for path in args.files:
        stem = os.path.splitext(os.path.basename(path))[0]
        n = seen.get(stem, 0)
        seen[stem] = n + 1
        name = stem if n == 0 else f"{stem}.{n}"
        tasks.append(
            AnalysisTask(
                name=name,
                files=(path,),
                options=payload,
                build_store=build_store,
                keep_snapshot=keep_snapshot,
            )
        )
    return tasks


def batch_status(batch) -> int:
    if batch.errors:
        return EXIT_ERROR
    if batch.partial:
        return EXIT_PARTIAL
    return EXIT_OK


def print_batch_summary(batch) -> None:
    stats = batch.stats()
    print(
        f"batch: {stats['programs']} program(s), jobs {stats['jobs']}, "
        f"{stats['elapsed_seconds']:.3f}s wall "
        f"({stats['worker_seconds']:.3f}s in workers)"
    )
