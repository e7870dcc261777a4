"""``repro analyze | explain | callgraph | compare | parallelize |
snapshot``: commands that lower and analyze C sources in this process."""

from __future__ import annotations

import argparse
import json
import sys

from ..ioutil import write_text
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


def _emit_stats_json(args: argparse.Namespace, analyzer) -> None:
    """Write the metrics snapshot when ``--stats-json`` was given.

    ``--stats-json`` (bare) writes to stdout; ``--stats-json PATH`` writes
    to the file at PATH.
    """
    dest = getattr(args, "stats_json", None)
    if dest is None:
        return
    write_text(dest, json.dumps(analyzer.stats_dict(), indent=2, sort_keys=True))


def _emit_trace_json(args: argparse.Namespace, analyzer) -> None:
    """Write the collected trace when ``--trace-json``/``--trace-jsonl``
    was given.  Follows the ``--stats-json`` convention: ``-`` (or a bare
    flag) writes to stdout, anything else is a file path."""
    emit_trace(args, analyzer.trace)


def add_analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+")
    p.add_argument("--jobs", type=int, metavar="N",
                   help="batch mode: analyze each FILE as its own program "
                        "over N worker processes (1 = same batch "
                        "sequentially; results and digests are "
                        "bit-identical across N — see docs/PARALLEL.md)")
    p.add_argument("--snapshot-dir", metavar="DIR",
                   help="with --jobs: write each program's canonical "
                        "snapshot to DIR/<name>.snapshot.json")
    p.add_argument("--points-to", action="append", metavar="[PROC:]VAR",
                   help="print the points-to set of a variable")
    p.add_argument("--stats-json", nargs="?", const="-", metavar="PATH",
                   help="dump analysis metrics as JSON (to PATH, or stdout "
                        "when no PATH is given)")
    p.add_argument("--ptfs", action="append", metavar="PROC",
                   help="print the PTFs of a procedure")
    p.add_argument("--trace-json", nargs="?", const="-", metavar="PATH",
                   help="record a hierarchical analysis trace and write it "
                        "as Chrome trace-event JSON (Perfetto-loadable) to "
                        "PATH, or stdout when no PATH is given")
    p.add_argument("--trace-jsonl", metavar="PATH",
                   help="also/instead write the trace as one JSON event per "
                        "line ('-' for stdout)")
    add_analysis_flags(p)


def add_explain_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+")
    p.add_argument("--query", action="append", required=True,
                   metavar="VAR[@PROC]",
                   help="pointer variable to explain (PROC defaults to "
                        "main); repeatable")
    p.add_argument("--depth", type=int, default=8,
                   help="maximum derivation-chain depth (default 8)")
    p.add_argument("--json", action="store_true",
                   help="emit the derivation chains as JSON")
    p.add_argument("-o", "--output", default="-", metavar="PATH",
                   help="destination for --json ('-' = stdout, the default)")
    p.add_argument("--trace-json", nargs="?", const="-", metavar="PATH",
                   help="also record and write the Chrome trace")
    p.add_argument("--trace-jsonl", metavar="PATH", help=argparse.SUPPRESS)
    add_analysis_flags(p)


def add_callgraph_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+")
    add_analysis_flags(p)


def add_compare_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+")
    p.add_argument("--var", required=True, metavar="[PROC:]VAR")
    add_analysis_flags(p)


def add_parallelize_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+")
    add_analysis_flags(p)


def add_snapshot_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output", default="-", metavar="PATH",
                   help="snapshot destination ('-' = stdout, the default)")
    p.add_argument("--name", metavar="NAME",
                   help="program name recorded in the snapshot (defaults "
                        "to the program's own name)")
    add_analysis_flags(p)


def _analyze_batch(args: argparse.Namespace) -> int:
    """``repro analyze --jobs N``: every FILE is analyzed as its own
    program, fanned out over N worker processes, results merged in
    argument order (docs/PARALLEL.md)."""
    import os

    from ..analysis.parallel import run_batch

    opts = options_from(args)
    tasks = batch_tasks(args, opts)
    batch = run_batch(tasks, jobs=args.jobs, tracer=opts.trace)
    for bundle in batch.results:
        name = bundle["name"]
        if bundle.get("error"):
            print(f"{name:<12} ERROR: {bundle['error']}")
            for fault in bundle.get("frontend_faults", []):
                print(f"repro: {name}: frontend fault: {fault}",
                      file=sys.stderr)
            continue
        print(
            f"{name:<12} digest {bundle['digest'][:16]}…  "
            f"procs {bundle['procedures']:>3}  "
            f"ptfs {bundle['total_ptfs']:>4}  "
            f"{bundle['analysis_seconds'] * 1000:>8.1f} ms"
        )
        for line in bundle.get("degradation_lines", []):
            print(f"repro: {name}: {line}", file=sys.stderr)
    print_batch_summary(batch)
    if getattr(args, "snapshot_dir", None):
        from ..diagnostics.snapshot import write_snapshot

        os.makedirs(args.snapshot_dir, exist_ok=True)
        for bundle in batch.results:
            if bundle.get("error"):
                continue
            dest = os.path.join(
                args.snapshot_dir, f"{bundle['name']}.snapshot.json"
            )
            write_snapshot(bundle["snapshot"], dest)
            print(
                f"repro: snapshot {dest} digest {bundle['digest'][:16]}…",
                file=sys.stderr,
            )
    dest = getattr(args, "stats_json", None)
    if dest is not None:
        per_program = {}
        for bundle in batch.results:
            per_program[bundle["name"]] = {
                k: bundle[k]
                for k in (
                    "digest", "procedures", "total_ptfs", "avg_ptfs",
                    "analysis_seconds", "seconds", "error", "partial",
                    "pid",
                )
                if k in bundle
            }
        payload = {"batch": batch.stats(), "programs": per_program}
        write_text(
            dest,
            json.dumps(payload, indent=2, sort_keys=True),
        )
    emit_trace(args, opts.trace)
    return batch_status(batch)


def cmd_analyze(args: argparse.Namespace) -> int:
    if getattr(args, "jobs", None) is not None:
        return _analyze_batch(args)
    from ..analysis.results import run_analysis
    from ..frontend.parser import load_project_files

    opts = options_from(args)
    program = load_project_files(
        args.files, tolerant=not opts.strict, faults=opts.faults
    )
    if "main" not in program.procedures:
        # nothing analyzable survived the frontend: hard error, with one
        # structured diagnostic line per dropped unit/procedure
        for fault in program.frontend_failures:
            print(f"repro: frontend fault: {fault.render()}", file=sys.stderr)
        print("error: no analyzable main procedure", file=sys.stderr)
        return EXIT_ERROR
    result = run_analysis(program, opts)
    stats = result.stats()
    print(f"program       : {program.name}")
    print(f"source lines  : {stats.source_lines}")
    print(f"procedures    : {stats.procedures}")
    print(f"analysis time : {stats.analysis_seconds * 1000:.1f} ms")
    print(f"total PTFs    : {stats.total_ptfs}")
    print(f"avg PTFs/proc : {stats.avg_ptfs:.2f}")
    for var in args.points_to or []:
        proc, _, name = var.rpartition(":")
        proc = proc or "main"
        targets = sorted(result.points_to_names(proc, name))
        print(f"points-to {proc}:{name} -> {targets}")
    for proc in args.ptfs or []:
        for ptf in result.ptfs_of(proc):
            print(ptf.describe())
    _emit_stats_json(args, result.analyzer)
    _emit_trace_json(args, result.analyzer)
    report = result.degradation
    if not report.ok:
        report_degradation(report)
        return EXIT_PARTIAL
    return EXIT_OK


def _parse_query(query: str) -> tuple[str, str]:
    """``VAR[@PROC]`` -> ``(proc, var)``; PROC defaults to ``main``."""
    var, _, proc = query.partition("@")
    return (proc or "main", var)


def cmd_explain(args: argparse.Namespace) -> int:
    from ..analysis.results import run_analysis
    from ..frontend.parser import load_project_files

    args.provenance = True
    program = load_project_files(args.files)
    result = run_analysis(program, options_from(args))
    payloads = []
    status = 0
    for query in args.query:
        proc, var = _parse_query(query)
        try:
            explanations = result.explain(proc, var, max_depth=args.depth)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            status = 2
            continue
        payloads.append(
            {"query": query, "proc": proc, "var": var, "explanations": explanations}
        )
    if args.json:
        write_text(
            getattr(args, "output", "-") or "-",
            json.dumps(payloads, indent=2, sort_keys=True),
        )
        _emit_trace_json(args, result.analyzer)
        return status
    prov = result.analyzer.provenance
    for payload in payloads:
        proc, var = payload["proc"], payload["var"]
        explanations = payload["explanations"]
        if not explanations:
            print(f"{proc}:{var} -> (no pointer values at exit)")
            continue
        seen: set[tuple] = set()
        for exp in explanations:
            # values differing only in offset/stride resolve to the same
            # display name and chain; print each distinct chain once
            key = (exp["display"], tuple(s["eid"] for s in exp["chain"]))
            if key in seen:
                continue
            seen.add(key)
            print(f"{proc}:{var} -> {exp['display']}   (PTF#{exp['ptf']})")
            if not exp["chain"]:
                print("    (no derivation on record: value predates the "
                      "analysis, e.g. a static initializer or synthetic input)")
                continue
            for step in exp["chain"]:
                rec = prov.records[step["eid"] - 1]
                print("    " + "  " * step["depth"] + rec.render())
    _emit_trace_json(args, result.analyzer)
    return status


def cmd_callgraph(args: argparse.Namespace) -> int:
    from ..analysis.results import run_analysis
    from ..frontend.parser import load_project_files

    program = load_project_files(args.files)
    result = run_analysis(program, options_from(args))
    graph = result.call_graph()
    for caller in sorted(graph):
        for callee in sorted(graph[caller]):
            print(f"{caller} -> {callee}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from ..analysis.results import run_analysis
    from ..baselines import andersen_analyze, steensgaard_analyze
    from ..frontend.parser import load_project_files

    program = load_project_files(args.files)
    wl = run_analysis(program, options_from(args))
    program2 = load_project_files(args.files)
    ai = andersen_analyze(program2)
    program3 = load_project_files(args.files)
    st = steensgaard_analyze(program3)
    proc, _, name = (args.var or "").rpartition(":")
    proc = proc or "main"
    print(f"{'analysis':<14} points-to {proc}:{name}")
    print(f"{'wilson-lam':<14} {sorted(wl.points_to_names(proc, name))}")
    print(f"{'andersen':<14} {sorted(ai.points_to_names(proc, name))}")
    print(f"{'steensgaard':<14} {sorted(st.points_to_names(proc, name))}")
    return 0


def cmd_parallelize(args: argparse.Namespace) -> int:
    from ..analysis.results import run_analysis
    from ..clients import MachineModel, Parallelizer
    from ..frontend.parser import load_project_files

    program = load_project_files(args.files)
    result = run_analysis(program, options_from(args))
    with open(args.files[0]) as f:
        source = f.read()
    par = Parallelizer(source, alias_oracle=result, filename=args.files[0])
    par.run()
    for loop in par.all_loops():
        tag = "PARALLEL" if loop.parallel else "serial"
        print(f"{loop.proc}:{loop.line:<5} {tag:<9} {loop.reason}")
    timing = MachineModel().time_program("program", par.all_loops())
    _, pct, avg, s2, s4 = timing.row()
    print(f"-- {pct:.1f}% parallel, {avg:.2f} ms/loop, "
          f"speedups {s2:.2f} (2 CPU) / {s4:.2f} (4 CPU)")
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Analyze sources and emit the canonical run snapshot (JSON)."""
    from ..analysis.results import run_analysis
    from ..diagnostics.snapshot import build_snapshot, write_snapshot
    from ..frontend.parser import load_project_files

    opts = options_from(args)
    program = load_project_files(
        args.files, tolerant=not opts.strict, faults=opts.faults
    )
    if "main" not in program.procedures:
        for fault in program.frontend_failures:
            print(f"repro: frontend fault: {fault.render()}", file=sys.stderr)
        print("error: no analyzable main procedure", file=sys.stderr)
        return EXIT_ERROR
    result = run_analysis(program, opts)
    snap = build_snapshot(result, options=opts, program_name=args.name)
    write_snapshot(snap, args.output)
    if args.output != "-":
        digest = snap["digest"]["program"]
        print(f"repro: snapshot {args.output} digest {digest[:16]}…",
              file=sys.stderr)
    report = result.degradation
    if not report.ok:
        report_degradation(report)
        return EXIT_PARTIAL
    return EXIT_OK


COMMANDS = {
    "analyze": (add_analyze_arguments, cmd_analyze),
    "explain": (add_explain_arguments, cmd_explain),
    "callgraph": (add_callgraph_arguments, cmd_callgraph),
    "compare": (add_compare_arguments, cmd_compare),
    "parallelize": (add_parallelize_arguments, cmd_parallelize),
    "snapshot": (add_snapshot_arguments, cmd_snapshot),
}
