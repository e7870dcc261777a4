"""``repro index``: analyze sources once and write the persistent query
store (docs/QUERY.md)."""

from __future__ import annotations

import argparse
import json
import sys

from . import EXIT_ERROR, EXIT_OK, EXIT_PARTIAL
from .shared import (
    add_analysis_flags,
    batch_status,
    batch_tasks,
    emit_trace,
    options_from,
    print_batch_summary,
    report_degradation,
)


def add_index_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output", default="-", metavar="PATH",
                   help="store destination ('-' = stdout, the default)")
    p.add_argument("--name", metavar="NAME",
                   help="program name recorded in the store")
    p.add_argument("--force", action="store_true",
                   help="rebuild even when the digest check says the "
                        "store is still the solution of these sources")
    p.add_argument("--jobs", type=int, metavar="N",
                   help="batch mode: index each FILE as its own program "
                        "over N worker processes; -o names the output "
                        "directory (always rebuilds)")
    add_analysis_flags(p)


def _index_batch(args: argparse.Namespace) -> int:
    """``repro index --jobs N``: one store per FILE, built in worker
    processes; ``-o`` names the output *directory*."""
    import os

    from ..analysis.parallel import run_batch
    from ..query import write_store

    if args.output == "-":
        print("error: index --jobs requires -o DIR (a directory, "
              "one store per input file)", file=sys.stderr)
        return EXIT_ERROR
    opts = options_from(args)
    tasks = batch_tasks(args, opts, build_store=True)
    batch = run_batch(tasks, jobs=args.jobs, tracer=opts.trace)
    os.makedirs(args.output, exist_ok=True)
    for bundle in batch.results:
        name = bundle["name"]
        if bundle.get("error"):
            print(f"{name:<12} ERROR: {bundle['error']}")
            continue
        dest = os.path.join(args.output, f"{name}.store.json")
        write_store(bundle["store"], dest)
        n = len(bundle["store"]["index"]["procedures"])
        print(
            f"repro: indexed {name} ({n} procedure(s)) -> {dest}",
            file=sys.stderr,
        )
        for line in bundle.get("degradation_lines", []):
            print(f"repro: {name}: {line}", file=sys.stderr)
    print_batch_summary(batch)
    emit_trace(args, opts.trace)
    return batch_status(batch)


def cmd_index(args: argparse.Namespace) -> int:
    """Analyze sources and write the persistent query store
    (``docs/QUERY.md``).  Repeated runs first check staleness by digest
    (:mod:`repro.query.invalidate`) and skip the analysis entirely when
    the store is still the solution of these sources."""
    if getattr(args, "jobs", None) is not None:
        return _index_batch(args)
    from ..analysis.results import run_analysis
    from ..frontend.parser import load_project_files
    from ..query import build_store, compute_stale, load_store, write_store

    opts = options_from(args)
    program = load_project_files(
        args.files, tolerant=not opts.strict, faults=opts.faults
    )
    if "main" not in program.procedures:
        for fault in program.frontend_failures:
            print(f"repro: frontend fault: {fault.render()}", file=sys.stderr)
        print("error: no analyzable main procedure", file=sys.stderr)
        return EXIT_ERROR
    if not args.force and args.output != "-":
        try:
            old = load_store(args.output)
        except (OSError, ValueError, json.JSONDecodeError):
            old = None
        if old is not None:
            report = compute_stale(old, program)
            for line in report.summary_lines():
                print(f"repro: {line}", file=sys.stderr)
            if report.up_to_date:
                print(
                    f"repro: store {args.output} is up to date; "
                    "skipping re-analysis (--force to rebuild)",
                    file=sys.stderr,
                )
                return EXIT_OK
    result = run_analysis(program, opts)
    store = build_store(
        result, options=opts, program_name=args.name, sources=args.files
    )
    write_store(store, args.output)
    if args.output != "-":
        n = len(store["index"]["procedures"])
        print(
            f"repro: indexed {store['program']} "
            f"({n} procedure(s)) -> {args.output}",
            file=sys.stderr,
        )
    report = result.degradation
    if not report.ok:
        report_degradation(report)
        return EXIT_PARTIAL
    return EXIT_OK


COMMANDS = {
    "index": (add_index_arguments, cmd_index),
}
