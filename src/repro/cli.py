"""Command-line interface.

::

    python -m repro analyze prog.c [more.c ...] [--points-to VAR] [--ptfs PROC]
    python -m repro analyze prog.c --trace-json trace.json   # Perfetto-loadable
    python -m repro explain prog.c --query VAR[@PROC]        # why does p -> x?
    python -m repro callgraph prog.c
    python -m repro compare prog.c --var VAR        # WL vs Andersen vs Steensgaard
    python -m repro table2 [--names a,b,c] [--json]
    python -m repro table3
    python -m repro parallelize prog.c
    python -m repro snapshot prog.c -o run.json      # canonical run snapshot
    python -m repro diff old.json new.json --fail-on precision-loss,perf:5%
    python -m repro analyze --jobs 4 a.c b.c c.c --snapshot-dir snaps/
    python -m repro index prog.c -o prog.store.json  # analyze once...
    python -m repro index --jobs 4 a.c b.c -o stores/  # one store per file
    python -m repro query prog.store.json "points-to p@main" "alias a b"
    python -m repro serve prog.store.json --tcp 127.0.0.1:0   # ...ask many
    python -m repro serve prog.store.json --access-log access.jsonl
    python -m repro loadtest prog.store.json --clients 64 --record
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Optional

from .ioutil import out_stream, write_text

if TYPE_CHECKING:
    from .analysis.engine import AnalyzerOptions

__all__ = ["main"]

#: exit-code convention: 0 clean, 2 hard error (nothing analyzable /
#: strict-mode abort), 4 partial results (analysis finished but the
#: degradation report is non-empty — some summaries are conservative)
EXIT_OK = 0
EXIT_ERROR = 2
EXIT_PARTIAL = 4


def _options_from(args: argparse.Namespace) -> AnalyzerOptions:
    from .analysis.engine import AnalyzerOptions

    opts = AnalyzerOptions(
        state_kind=args.state,
        external_policy=args.external,
        strong_updates=not args.no_strong_updates,
        heap_context_depth=args.heap_context,
        lookup_cache=not args.no_lookup_cache,
    )
    if getattr(args, "trace_json", None) or getattr(args, "trace_jsonl", None):
        from .diagnostics import Tracer

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
        from .diagnostics.faults import FaultPlan

        opts.faults = FaultPlan.from_spec(args.inject_faults)
    return opts


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", choices=["sparse", "dense"], default="sparse",
                   help="points-to state representation (default: sparse)")
    p.add_argument("--external", choices=["havoc", "ignore"], default="havoc",
                   help="policy for unknown external functions")
    p.add_argument("--no-strong-updates", action="store_true",
                   help="disable strong updates (ablation)")
    p.add_argument("--heap-context", type=int, default=0, metavar="K",
                   help="heap naming call-chain depth (default 0: site only)")
    p.add_argument("--no-lookup-cache", action="store_true",
                   help="disable the sparse lookup memoization (debugging / "
                        "benchmark baseline; results are bit-identical)")
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


def _report_degradation(report) -> None:
    """One line per quarantine/degradation on stderr (grep-friendly)."""
    for line in report.summary_lines():
        print(f"repro: {line}", file=sys.stderr)


# the one '-'-means-stdout convention, shared by every JSON-emitting
# flag (--stats-json, --trace-json[l], explain --json, query -o, serve
# --access-log, loadtest -o); canonical home is repro.ioutil so non-CLI
# layers (the serve daemon, the load generator) compose with it too
_out_stream = out_stream
_write_text = write_text


def _emit_stats_json(args: argparse.Namespace, analyzer) -> None:
    """Write the metrics snapshot when ``--stats-json`` was given.

    ``--stats-json`` (bare) writes to stdout; ``--stats-json PATH`` writes
    to the file at PATH.
    """
    dest = getattr(args, "stats_json", None)
    if dest is None:
        return
    _write_text(dest, json.dumps(analyzer.stats_dict(), indent=2, sort_keys=True))


def _emit_trace_json(args: argparse.Namespace, analyzer) -> None:
    """Write the collected trace when ``--trace-json``/``--trace-jsonl``
    was given.  Follows the ``--stats-json`` convention: ``-`` (or a bare
    flag) writes to stdout, anything else is a file path."""
    _emit_trace(args, analyzer.trace)


def _emit_trace(args: argparse.Namespace, tracer) -> None:
    if tracer is None:
        return
    dest = getattr(args, "trace_json", None)
    if dest is not None:
        with _out_stream(dest) as fh:
            tracer.write_chrome(fh)
    dest = getattr(args, "trace_jsonl", None)
    if dest is not None:
        with _out_stream(dest) as fh:
            tracer.write_jsonl(fh)


def _batch_tasks(args: argparse.Namespace, opts, build_store: bool = False):
    """One :class:`AnalysisTask` per FILE argument (``--jobs`` batch
    semantics: every file is its own whole program).  Duplicate basename
    stems are disambiguated positionally so per-program output files
    never collide."""
    import os

    from .analysis.parallel import AnalysisTask, options_payload

    payload = options_payload(opts)
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
            )
        )
    return tasks


def _batch_status(batch) -> int:
    if batch.errors:
        return EXIT_ERROR
    if batch.partial:
        return EXIT_PARTIAL
    return EXIT_OK


def _print_batch_summary(batch) -> None:
    stats = batch.stats()
    print(
        f"batch: {stats['programs']} program(s), jobs {stats['jobs']}, "
        f"{stats['elapsed_seconds']:.3f}s wall "
        f"({stats['worker_seconds']:.3f}s in workers), "
        f"{stats['shards']} shard(s), {stats['recursive_shards']} recursive"
    )


def _analyze_batch(args: argparse.Namespace) -> int:
    """``repro analyze --jobs N``: every FILE is analyzed as its own
    program, fanned out over N worker processes, results merged in
    argument order (docs/PARALLEL.md)."""
    import os

    from .analysis.parallel import run_batch

    opts = _options_from(args)
    tasks = _batch_tasks(args, opts)
    profile_dest = getattr(args, "profile_parallel", None)
    if profile_dest is not None and opts.trace is None:
        # the observatory always merges worker lanes; --trace-json[l]
        # decides whether the merged trace is also written out
        from .diagnostics.trace import Tracer

        opts.trace = Tracer()
    batch = run_batch(
        tasks,
        jobs=args.jobs,
        tracer=opts.trace,
        profile=profile_dest is not None,
        worker_trace_dir=getattr(args, "worker_trace_dir", None),
    )
    for bundle in batch.results:
        name = bundle["name"]
        if bundle.get("error"):
            print(f"{name:<12} ERROR: {bundle['error']}")
            for fault in bundle.get("frontend_faults", []):
                print(f"repro: {name}: frontend fault: {fault}",
                      file=sys.stderr)
            continue
        plan = bundle["shard_plan"]
        print(
            f"{name:<12} digest {bundle['digest'][:16]}…  "
            f"procs {bundle['procedures']:>3}  "
            f"ptfs {bundle['total_ptfs']:>4}  "
            f"{bundle['analysis_seconds'] * 1000:>8.1f} ms  "
            f"shards {plan['shards']:>3} "
            f"(waves {plan['critical_path']}, width {plan['width']}, "
            f"recursive {plan['recursive_shards']})"
        )
        for line in bundle.get("degradation_lines", []):
            print(f"repro: {name}: {line}", file=sys.stderr)
    _print_batch_summary(batch)
    if getattr(args, "snapshot_dir", None):
        from .diagnostics.snapshot import write_snapshot

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
    if profile_dest is not None:
        from .diagnostics.parprof import build_parallel_profile, write_profile

        doc = build_parallel_profile(batch)
        write_profile(doc, profile_dest)
        print(
            f"repro: parallel profile {profile_dest} "
            f"(measured {doc['measured_speedup']}x, theoretical "
            f"{doc['theoretical_speedup']}x, {len(batch.lanes)} worker "
            f"lane(s)); render with: repro parallel-report {profile_dest}",
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
                    "analysis_seconds", "seconds", "shard_plan", "error",
                    "partial", "pid",
                )
                if k in bundle
            }
        payload = {"batch": batch.stats(), "programs": per_program}
        if batch.telemetry is not None:
            payload["telemetry"] = batch.telemetry.as_dict()
        _write_text(
            dest,
            json.dumps(payload, indent=2, sort_keys=True),
        )
    _emit_trace(args, opts.trace)
    return _batch_status(batch)


def _analyze_demand(args: argparse.Namespace) -> int:
    """``repro analyze --demand-root VAR@PROC``: print the demand slice
    for each root and answer its points-to query from a query-rooted
    analysis (the unreachable fast path never runs the fixpoint)."""
    from .analysis.demand import (
        DemandAnalysis,
        DemandEngine,
        fresh_analysis_state,
    )
    from .frontend.parser import load_project_files
    from .query import QueryError

    opts = _options_from(args)
    fresh_analysis_state()
    program = load_project_files(
        args.files, tolerant=not opts.strict, faults=opts.faults
    )
    analysis = DemandAnalysis(program, options=opts, tracer=opts.trace)
    engine = DemandEngine(analysis, sources=args.files)
    status = EXIT_OK
    for spec in args.demand_root:
        var, _, proc = spec.partition("@")
        proc = proc or "main"
        sl = analysis.slice_for(proc)
        if sl.reachable:
            print(
                f"demand slice {var}@{proc}: {len(sl.procs)}/"
                f"{len(program.procedures)} procedure(s), "
                f"{sl.shards} shard(s), "
                f"{len(sl.context_procs)} context proc(s)"
            )
        else:
            print(
                f"demand slice {var}@{proc}: unreachable from main — "
                "empty facts, no analysis"
            )
        try:
            answer = engine.query({"op": "points_to", "var": var, "proc": proc})
        except QueryError as exc:
            print(f"error: {spec!r}: {exc}", file=sys.stderr)
            status = EXIT_ERROR
            continue
        for line in _render_query_answer(answer):
            print(line)
    _emit_trace(args, opts.trace)
    if status == EXIT_OK and analysis.degraded():
        _report_degradation(analysis.run_result().degradation)
        return EXIT_PARTIAL
    return status


def cmd_analyze(args: argparse.Namespace) -> int:
    if getattr(args, "jobs", None) is not None:
        return _analyze_batch(args)
    if getattr(args, "demand_root", None):
        return _analyze_demand(args)
    from .analysis.results import run_analysis
    from .frontend.parser import load_project_files

    opts = _options_from(args)
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
        _report_degradation(report)
        return EXIT_PARTIAL
    return EXIT_OK


def _parse_query(query: str) -> tuple[str, str]:
    """``VAR[@PROC]`` -> ``(proc, var)``; PROC defaults to ``main``."""
    var, _, proc = query.partition("@")
    return (proc or "main", var)


def cmd_explain(args: argparse.Namespace) -> int:
    from .analysis.results import run_analysis
    from .frontend.parser import load_project_files

    args.provenance = True
    program = load_project_files(args.files)
    result = run_analysis(program, _options_from(args))
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
        _write_text(
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
    from .analysis.results import run_analysis
    from .frontend.parser import load_project_files

    program = load_project_files(args.files)
    result = run_analysis(program, _options_from(args))
    graph = result.call_graph()
    for caller in sorted(graph):
        for callee in sorted(graph[caller]):
            print(f"{caller} -> {callee}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .analysis.results import run_analysis
    from .baselines import andersen_analyze, steensgaard_analyze
    from .frontend.parser import load_project_files

    program = load_project_files(args.files)
    wl = run_analysis(program, _options_from(args))
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


def cmd_table2(args: argparse.Namespace) -> int:
    from .bench import table2_rows, table2_text

    names = args.names.split(",") if args.names else None
    rows = table2_rows(names=names)
    if args.json:
        print(json.dumps([r.as_dict() for r in rows], indent=2, sort_keys=True))
    else:
        print(table2_text(rows))
    if getattr(args, "record", None):
        from .bench import record_trajectory

        entry, drift = record_trajectory(rows, path=args.record)
        print(f"repro: recorded entry rev={entry['revision']} -> {args.record}",
              file=sys.stderr)
        for line in drift:
            print(f"repro: drift: {line}", file=sys.stderr)
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    from .bench import table3_text

    print(table3_text())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate the full paper-vs-measured comparison (EXPERIMENTS.md)."""
    from .bench import invocation_rows, table2_text, table3_text

    print("=" * 72)
    print("Wilson & Lam, PLDI 1995 — reproduction report")
    print("=" * 72)
    print()
    print(table2_text())
    print()
    print(table3_text())
    print()
    print("Invocation-graph comparison (the §7 Emami anecdote):")
    for row in invocation_rows(names=["compiler"]):
        ratio = row["invocation_nodes"] / max(row["total_ptfs"], 1)
        print(
            f"  {row['name']}: {row['procedures']} procedures, "
            f"{row['invocation_nodes']:,} invocation-graph nodes, "
            f"{row['total_ptfs']} PTFs ({ratio:,.0f}x)"
        )
    print()
    print("PTF reuse vs reanalysis-per-context (binary call DAG, depth 9):")
    from . import AnalyzerOptions, analyze_source

    parts = ["int g;", "void leaf(int *p) { g = *p; }",
             "void f0(int *p) { leaf(p); leaf(p); }"]
    for i in range(1, 9):
        parts.append(f"void f{i}(int *p) {{ f{i-1}(p); f{i-1}(p); }}")
    parts.append("int main(void) { int x; f8(&x); return 0; }")
    dag = "\n".join(parts)
    reuse = analyze_source(dag)
    emami = analyze_source(
        dag, options=AnalyzerOptions(reuse_ptfs=False, ptf_limit=1_000_000)
    )
    print(f"  with reuse : {reuse.stats().total_ptfs} PTFs")
    print(f"  per-context: {emami.stats().total_ptfs} PTFs")
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Analyze sources and emit the canonical run snapshot (JSON)."""
    from .analysis.results import run_analysis
    from .diagnostics.snapshot import build_snapshot, write_snapshot
    from .frontend.parser import load_project_files

    opts = _options_from(args)
    if args.memory:
        opts.track_memory = True
    program = load_project_files(
        args.files, tolerant=not opts.strict, faults=opts.faults
    )
    if "main" not in program.procedures:
        for fault in program.frontend_failures:
            print(f"repro: frontend fault: {fault.render()}", file=sys.stderr)
        print("error: no analyzable main procedure", file=sys.stderr)
        return EXIT_ERROR
    result = run_analysis(program, opts)
    snap = build_snapshot(
        result,
        options=opts,
        program_name=args.name,
        include_solution=not args.no_solution,
    )
    write_snapshot(snap, args.output)
    if args.output != "-":
        digest = snap["digest"]["program"]
        print(f"repro: snapshot {args.output} digest {digest[:16]}…",
              file=sys.stderr)
    report = result.degradation
    if not report.ok:
        _report_degradation(report)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_diff(args: argparse.Namespace) -> int:
    """Compare two snapshots; classify + report drift, honoring --fail-on."""
    from .diagnostics.diff import diff_snapshots, parse_fail_on
    from .diagnostics.snapshot import load_snapshot

    try:
        fail_on = parse_fail_on(args.fail_on)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        old = load_snapshot(args.old)
        new = load_snapshot(args.new)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        report = diff_snapshots(
            old,
            new,
            perf_threshold=(
                fail_on.perf_threshold
                if fail_on.perf_threshold is not None
                else args.perf_threshold / 100.0
            ),
            mem_threshold=(
                fail_on.mem_threshold
                if fail_on.mem_threshold is not None
                else args.mem_threshold / 100.0
            ),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"diff {report.old_program} -> {report.new_program}")
        for line in report.summary_lines():
            print(f"  {line}")
    failing = report.failed(fail_on)
    if failing:
        print(
            f"repro: drift gate failed on: {', '.join(sorted(failing))}",
            file=sys.stderr,
        )
        return 1
    return EXIT_OK


def cmd_parallelize(args: argparse.Namespace) -> int:
    from .analysis.results import run_analysis
    from .clients import MachineModel, Parallelizer
    from .frontend.parser import load_project_files

    program = load_project_files(args.files)
    result = run_analysis(program, _options_from(args))
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


def _index_batch(args: argparse.Namespace) -> int:
    """``repro index --jobs N``: one store per FILE, built in worker
    processes; ``-o`` names the output *directory*."""
    import os

    from .analysis.parallel import run_batch
    from .query import write_store

    if args.output == "-":
        print("error: index --jobs requires -o DIR (a directory, "
              "one store per input file)", file=sys.stderr)
        return EXIT_ERROR
    opts = _options_from(args)
    tasks = _batch_tasks(args, opts, build_store=True)
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
    _print_batch_summary(batch)
    _emit_trace(args, opts.trace)
    return _batch_status(batch)


def cmd_index(args: argparse.Namespace) -> int:
    """Analyze sources and write the persistent query store
    (``docs/QUERY.md``).  Repeated runs first check staleness by digest
    (:mod:`repro.query.invalidate`) and skip the analysis entirely when
    the store is still the solution of these sources."""
    if getattr(args, "jobs", None) is not None:
        return _index_batch(args)
    from .analysis.results import run_analysis
    from .frontend.parser import load_project_files
    from .query import build_store, compute_stale, load_store, write_store

    opts = _options_from(args)
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
        _report_degradation(report)
        return EXIT_PARTIAL
    return EXIT_OK


def _render_query_answer(answer: dict) -> list[str]:
    """Human-readable lines for one query answer (the --json form emits
    the answer dicts verbatim instead)."""
    op = answer["op"]
    if op == "points_to":
        head = (f"points-to {answer['var']}@{answer['proc']} -> "
                f"{answer['targets'] or '(nothing)'}")
        return [head, f"  explain: {answer['explain']}"]
    if op == "alias":
        lines = [f"alias {answer['a']} {answer['b']} @{answer['proc']} -> "
                 f"{answer['verdict']}"]
        if answer.get("witness"):
            w = answer["witness"]
            lines.append(f"  witness: both reach {w['block']} "
                         f"(PTF#{w['ptf']}, a={w['a']}, b={w['b']})")
        return lines
    if op == "pointed_by":
        pairs = ", ".join(f"{p}:{v}" for p, v in answer["pointers"])
        return [f"pointed-by {answer['name']} -> {pairs or '(nobody)'}"]
    if op == "modref":
        where = answer["proc"]
        if "line" in answer:
            where += f":{answer['line']}"
        lines = [f"modref {where}"
                 + (" (pure)" if answer.get("pure") else "")]
        for bucket in ("mod", "ref"):
            names = ", ".join(sorted(answer[bucket])) or "(empty)"
            lines.append(f"  {bucket}: {names}")
        if answer.get("unresolved"):
            lines.append("  unresolved: " + ", ".join(answer["unresolved"]))
        return lines
    if op == "reaches":
        if answer["reachable"]:
            return [f"reaches {answer['src']} -> {answer['dst']}: yes "
                    f"({' -> '.join(answer['path'])})"]
        return [f"reaches {answer['src']} -> {answer['dst']}: no"]
    if op in ("callees", "callers"):
        names = ", ".join(answer[op]) or "(none)"
        return [f"{op} {answer['proc']}: {names}"]
    if op == "stats":
        return [
            f"stats: {answer['queries']} queries, "
            f"{answer['cache_hits']} hits / {answer['cache_misses']} misses "
            f"(hit rate {answer['cache_hit_rate']}), "
            f"{answer['cache_entries']} cached",
        ]
    return [json.dumps(answer, sort_keys=True)]


def _answer_query_specs(
    args: argparse.Namespace, engine, forced_mode: Optional[str] = None
) -> int:
    """Run the query specs against ``engine`` and render the answers —
    the shared tail of ``repro query``'s store-backed and
    ``--analyze-on-miss`` paths.  Per-answer ``mode``/``stale``
    annotations come from the engine's ``info`` dict (the answers
    themselves are shared cache entries and stay byte-identical);
    ``forced_mode`` marks every answer when the engine *is* a demand
    engine (no store to be stale against)."""
    from .analysis.guards import AnalysisBudget, GuardTripped
    from .query import QueryError, parse_query_spec

    budget = None
    if args.deadline is not None:
        budget = AnalysisBudget(deadline_seconds=args.deadline)
        budget.start()
    answers = []
    status = EXIT_OK
    for spec in args.queries:
        info: dict = {}
        try:
            request = parse_query_spec(spec)
            answer = engine.query(request, budget=budget, info=info)
        except QueryError as exc:
            print(f"error: {spec!r}: {exc}", file=sys.stderr)
            status = EXIT_ERROR
            continue
        except GuardTripped as exc:
            print(f"error: {spec!r}: {exc}", file=sys.stderr)
            status = EXIT_ERROR
            continue
        if forced_mode and "mode" not in info:
            info["mode"] = forced_mode
        answers.append((answer, info))
    demand_used = any(i.get("mode") == "demand" for _, i in answers)
    stale_seen = any(i.get("stale") for _, i in answers)
    if args.json:
        payload = []
        for answer, info in answers:
            if info.get("mode") == "demand" or info.get("stale"):
                # annotate a copy: cached answers are shared and must
                # stay byte-identical across calls and modes
                annotated = dict(answer)
                if info.get("mode") == "demand":
                    annotated["mode"] = "demand"
                if info.get("stale"):
                    annotated["stale"] = True
                payload.append(annotated)
            else:
                payload.append(answer)
        _write_text(args.output, json.dumps(payload, indent=2, sort_keys=True))
    else:
        with _out_stream(args.output) as fh:
            for answer, info in answers:
                for line in _render_query_answer(answer):
                    fh.write(line + "\n")
                if info.get("mode") == "demand" and forced_mode is None:
                    fh.write("  mode: demand (recomputed from the "
                             "edited sources)\n")
                elif info.get("stale"):
                    fh.write("  stale: answer predates the source "
                             "edits (--demand recomputes)\n")
    if demand_used and forced_mode is None:
        print(
            "repro: sources changed since 'repro index'; stale answers "
            "were recomputed on their demand slices (mode: demand)",
            file=sys.stderr,
        )
    elif stale_seen:
        print(
            "repro: warning: the store is stale for some queried facts "
            "and demand mode is off; those answers may be outdated "
            "(re-run 'repro index', or drop --no-demand)",
            file=sys.stderr,
        )
    degraded = engine.degraded or any(
        i.get("demand_degraded") for _, i in answers
    )
    if status == EXIT_OK and degraded:
        print(
            "repro: answers come from a degraded (partial) analysis; "
            "they are conservative",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return status


def _query_without_store(args: argparse.Namespace) -> int:
    """The ``--analyze-on-miss`` path: no store — lower the given
    sources and answer straight from a one-shot demand analysis."""
    from .analysis.demand import (
        DemandAnalysis,
        DemandEngine,
        fresh_analysis_state,
    )
    from .frontend.parser import load_project_files

    fresh_analysis_state()
    program = load_project_files(args.analyze_on_miss)
    engine = DemandEngine(
        DemandAnalysis(program),
        sources=args.analyze_on_miss,
        cache_size=args.cache_size,
    )
    return _answer_query_specs(args, engine, forced_mode="demand")


def cmd_query(args: argparse.Namespace) -> int:
    """Answer demand queries from a persisted store; when the indexed
    sources have been edited since, stale answers are recomputed on
    their demand slices instead of silently served (docs/QUERY.md §6)."""
    from .query import QueryEngine, load_store

    try:
        store = load_store(args.store)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        # StoreError (unknown format, truncated JSON, integrity
        # mismatch) lands here too — one repro: line, never a traceback
        if args.analyze_on_miss:
            print(
                f"repro: {exc}; answering from a one-shot demand "
                f"analysis of {len(args.analyze_on_miss)} file(s)",
                file=sys.stderr,
            )
            return _query_without_store(args)
        print(f"repro: {exc}", file=sys.stderr)
        print(
            "repro: hint: build the store first with 'repro index "
            f"FILES -o {args.store}', or pass --analyze-on-miss FILES "
            "to answer from a one-shot demand analysis",
            file=sys.stderr,
        )
        return EXIT_ERROR
    demand = None
    if store.get("sources"):
        from .analysis.demand import DemandTier

        demand = DemandTier(
            store, enabled=args.demand, cache_size=args.cache_size
        )
    engine = QueryEngine(store, cache_size=args.cache_size, demand=demand)
    return _answer_query_specs(args, engine)


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve demand queries from a persisted store (JSON lines over
    stdio, or TCP with --tcp HOST:PORT), with per-request telemetry and
    an optional structured access log (docs/OBSERVABILITY.md §5)."""
    from contextlib import ExitStack

    from .diagnostics.telemetry import TelemetryRegistry
    from .query import QueryEngine, load_store
    from .query.server import QueryServer

    try:
        store = load_store(args.store)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        # a corrupted/truncated/unknown-format store must refuse to
        # serve with one repro: line and exit 2, never a traceback
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        if not host or not port.isdigit():
            print(f"error: --tcp takes HOST:PORT, got {args.tcp!r}",
                  file=sys.stderr)
            return EXIT_ERROR
    faults = None
    if args.inject_serve_faults:
        from .diagnostics.faults import FaultPlan

        try:
            faults = FaultPlan.from_spec(args.inject_serve_faults)
        except ValueError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return EXIT_ERROR
    demand = None
    if store.get("sources"):
        from .analysis.demand import DemandTier

        # the tier is attached even under --no-demand: a disabled tier
        # still probes the sources, which is what powers the honest
        # `stale: true` envelope annotation
        demand = DemandTier(
            store, enabled=not args.no_demand, cache_size=args.cache_size
        )
    engine = QueryEngine(store, cache_size=args.cache_size, demand=demand)
    telemetry = None if args.no_telemetry else TelemetryRegistry()
    with ExitStack() as stack:
        access_log = None
        if args.access_log is not None:
            max_bytes = getattr(args, "access_log_max_bytes", None)
            if max_bytes is not None and args.access_log != "-":
                from .ioutil import RotatingLineWriter

                try:
                    access_log = stack.enter_context(
                        RotatingLineWriter(args.access_log, max_bytes)
                    )
                except (OSError, ValueError) as exc:
                    print(f"repro: {exc}", file=sys.stderr)
                    return EXIT_ERROR
            else:
                # same '-'-means-stdout writer as --stats-json/--trace-json
                access_log = stack.enter_context(
                    _out_stream(args.access_log)
                )
        server = QueryServer(
            engine,
            deadline_seconds=args.deadline,
            telemetry=telemetry,
            access_log=access_log,
            slow_ms=args.slow_ms,
            store_path=args.store,
            max_in_flight=args.max_in_flight,
            rate_limit=args.rate_limit,
            burst=args.burst,
            idle_timeout=args.idle_timeout,
            faults=faults,
        )
        server.install_signal_handlers()
        if args.watch is not None:
            try:
                server.start_watch(args.watch, log=sys.stderr)
            except ValueError as exc:
                print(f"repro: {exc}", file=sys.stderr)
                return EXIT_ERROR
        if args.tcp:
            return server.serve_tcp(host=host, port=int(port))
        return server.serve_stdio()


def _render_loadtest_report(report: dict) -> list[str]:
    lines = [
        f"loadtest {report['program']}: {report['requests']} requests, "
        f"{report['clients']} client(s), {report['errors']} error(s), "
        f"{report['seconds']:.3f}s wall",
        f"  throughput : {report['qps']:.1f} qps",
        "  latency    : p50 {p50_ms} ms, p90 {p90_ms} ms, p95 {p95_ms} ms, "
        "p99 {p99_ms} ms, max {max_ms} ms".format(**report["latency"]),
    ]
    hits, misses = report["cache_hits"], report["cache_misses"]
    lines.append(
        f"  cache      : {hits} hits / {misses} misses "
        f"(hit rate {report['cache_hit_rate']})"
    )
    mix = ", ".join(f"{op}={n}" for op, n in sorted(report["ops"].items()))
    lines.append(f"  op mix     : {mix}")
    chaos = report.get("chaos")
    if chaos is not None:
        lines.append(
            f"  chaos      : {chaos['answers_read']} answers read, "
            f"{chaos['sheds']} shed(s), {chaos['garbage']} garbage "
            f"line(s), {chaos['client_disconnects']} client "
            f"disconnect(s), {chaos['server_drops']} server drop(s), "
            f"{chaos['mismatches']} mismatch(es)"
        )
        for sample in chaos.get("mismatch_samples", []):
            lines.append(f"    mismatch : {sample}")
    return lines


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Replay a mixed concurrent query workload against a store (or a
    live daemon) and report/record throughput + latency quantiles."""
    from .bench.loadgen import parse_mix, run_loadtest
    from .bench.trajectory import (
        parse_serve_fail_on,
        record_serve_trajectory,
    )

    try:
        fail_on = parse_serve_fail_on(args.fail_on)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        mix = parse_mix(args.mix)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    addr = None
    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        if not host or not port.isdigit():
            print(f"error: --tcp takes HOST:PORT, got {args.tcp!r}",
                  file=sys.stderr)
            return EXIT_ERROR
        addr = (host, int(port))
    serve_faults = None
    if args.serve_faults:
        from .diagnostics.faults import FaultPlan

        try:
            serve_faults = FaultPlan.from_spec(args.serve_faults)
        except ValueError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return EXIT_ERROR
    try:
        report = run_loadtest(
            args.store,
            clients=args.clients,
            requests_per_client=args.requests,
            mix=mix,
            repeat_half=not args.no_repeat_half,
            seed=args.seed,
            deadline_seconds=args.deadline,
            cache_size=args.cache_size,
            addr=addr,
            chaos=args.chaos,
            serve_faults=serve_faults,
            rate_limit=args.rate_limit,
            burst=args.burst,
            max_in_flight=args.max_in_flight,
            expect_stores=args.expect_store,
        )
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_ERROR
    payload = report.as_dict()
    if args.json:
        _write_text(args.output,
                    json.dumps(payload, indent=2, sort_keys=True))
    else:
        with _out_stream(args.output) as fh:
            for line in _render_loadtest_report(payload):
                fh.write(line + "\n")
    status = EXIT_OK
    chaos_block = payload.get("chaos")
    if chaos_block is not None and chaos_block["mismatches"]:
        print(
            f"repro: chaos gate failed: {chaos_block['mismatches']} "
            "answer(s) did not match the fault-free baseline",
            file=sys.stderr,
        )
        status = 1
    if args.max_p99_ms is not None:
        p99 = payload["latency"]["p99_ms"]
        if p99 is None or p99 > args.max_p99_ms:
            print(
                f"repro: loadtest gate failed: p99 {p99} ms exceeds "
                f"--max-p99-ms {args.max_p99_ms}",
                file=sys.stderr,
            )
            status = 1
    if getattr(args, "record", None):
        entry, drift, failures = record_serve_trajectory(
            payload, path=args.record, fail_on=fail_on
        )
        print(
            f"repro: recorded serve entry rev={entry['revision']} -> "
            f"{args.record}",
            file=sys.stderr,
        )
        for line in drift:
            print(f"repro: drift: {line}", file=sys.stderr)
        if failures:
            for line in failures:
                print(f"repro: serve gate failed: {line}", file=sys.stderr)
            status = 1
    elif fail_on is not None:
        print("error: --fail-on requires --record (the gate compares "
              "against the previous trajectory entry)", file=sys.stderr)
        return EXIT_ERROR
    return status


def cmd_parallel_report(args: argparse.Namespace) -> int:
    """``repro parallel-report``: render a ``--profile-parallel``
    document (critical path, Brent bound, wave utilization, ranked
    pre-summarization candidates)."""
    from .diagnostics.parprof import load_profile, render_report

    try:
        profile = load_profile(args.profile)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        _write_text(
            args.output, json.dumps(profile, indent=2, sort_keys=True)
        )
    else:
        with _out_stream(args.output) as fh:
            fh.write(render_report(profile))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Context-sensitive pointer analysis for C "
                    "(Wilson & Lam, PLDI 1995)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze C files, print stats")
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
    p.add_argument("--demand-root", action="append", metavar="VAR[@PROC]",
                   help="demand mode: print the query's demand slice "
                        "over the static call graph and answer its "
                        "points-to query from a query-rooted analysis "
                        "(an unreachable PROC answers empty with no "
                        "analysis at all); repeatable — the slice "
                        "analysis runs once and is shared")
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
    p.add_argument("--profile-parallel", nargs="?",
                   const="parallel-profile.json", metavar="PATH",
                   help="with --jobs: run the parallel observatory — "
                        "per-worker traces merged onto one timeline (one "
                        "lane per worker; write it with --trace-json), "
                        "worker telemetry folded into the batch stats, and "
                        "the shard-plan critical-path profile written to "
                        "PATH (default parallel-profile.json; render with "
                        "'repro parallel-report')")
    p.add_argument("--worker-trace-dir", metavar="DIR",
                   help="with --profile-parallel: each worker also writes "
                        "its own JSONL trace to DIR/<name>.worker.jsonl")
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "explain",
        help="explain why a pointer points where it does (provenance)",
    )
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
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("callgraph", help="print the resolved call graph")
    p.add_argument("files", nargs="+")
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_callgraph)

    p = sub.add_parser("compare", help="compare against the baselines")
    p.add_argument("files", nargs="+")
    p.add_argument("--var", required=True, metavar="[PROC:]VAR")
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("table2", help="regenerate the paper's Table 2")
    p.add_argument("--names", help="comma-separated subset of benchmarks")
    p.add_argument("--json", action="store_true",
                   help="emit the rows as JSON instead of the text table")
    p.add_argument("--record", nargs="?", const="BENCH_table2.json",
                   metavar="PATH",
                   help="append this run to the benchmark trajectory file "
                        "(default BENCH_table2.json) and report drift "
                        "against the previous entry")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("table3", help="regenerate the paper's Table 3")
    p.set_defaults(func=cmd_table3)

    p = sub.add_parser("report", help="full paper-vs-measured report")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("parallelize", help="run the §7 parallelizer client")
    p.add_argument("files", nargs="+")
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_parallelize)

    p = sub.add_parser(
        "parallel-report",
        help="render a parallel profile (analyze --profile-parallel): "
             "critical path, Brent speedup bound, wave utilization, and "
             "the ranked pre-summarization candidates",
    )
    p.add_argument("profile", metavar="PROFILE",
                   help="path to a parallel-profile.json document")
    p.add_argument("--json", action="store_true",
                   help="emit the raw profile document instead of text")
    p.add_argument("-o", "--output", default="-", metavar="PATH",
                   help="destination ('-' = stdout, the default)")
    p.set_defaults(func=cmd_parallel_report)

    p = sub.add_parser(
        "snapshot",
        help="analyze C files and write the canonical run snapshot "
             "(deterministic digest + precision/perf/memory profiles)",
    )
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output", default="-", metavar="PATH",
                   help="snapshot destination ('-' = stdout, the default)")
    p.add_argument("--name", metavar="NAME",
                   help="program name recorded in the snapshot (defaults "
                        "to the program's own name)")
    p.add_argument("--no-solution", action="store_true",
                   help="omit the full canonical solution (the digest is "
                        "still computed from it; diffs fall back to "
                        "profile-level attribution)")
    p.add_argument("--memory", action="store_true",
                   help="sample the tracemalloc heap peak (adds overhead; "
                        "the live gauges are always recorded)")
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser(
        "diff",
        help="semantically compare two run snapshots and classify drift",
    )
    p.add_argument("old", help="baseline snapshot path ('-' = stdin)")
    p.add_argument("new", help="candidate snapshot path ('-' = stdin)")
    p.add_argument("--fail-on", metavar="SPEC",
                   help="comma-separated drift classes that make the exit "
                        "code 1, e.g. 'precision-loss,perf:5%%,mem:20%%' "
                        "(perf:N%%/mem:N%% also tighten the thresholds)")
    p.add_argument("--perf-threshold", type=float, default=10.0,
                   metavar="PCT",
                   help="relative elapsed-time change classified as perf "
                        "drift (default 10%%; 5 ms absolute noise floor)")
    p.add_argument("--mem-threshold", type=float, default=10.0,
                   metavar="PCT",
                   help="relative memory-gauge change classified as mem "
                        "drift (default 10%%)")
    p.add_argument("--json", action="store_true",
                   help="emit the classified drift report as JSON")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "index",
        help="analyze C files once and write the persistent query store "
             "(then ask with 'repro query' / 'repro serve')",
    )
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
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser(
        "query",
        help="answer demand queries from a store, without re-analyzing",
    )
    p.add_argument("store", help="store path written by 'repro index'")
    p.add_argument("queries", nargs="+", metavar="QUERY",
                   help="e.g. 'points-to p@main', 'alias a b@f', "
                        "'pointed-by x', 'modref f', 'modref f:12', "
                        "'reaches main f', 'callees f', 'callers f', "
                        "'stats'")
    p.add_argument("--json", action="store_true",
                   help="emit the answers as a JSON array")
    p.add_argument("-o", "--output", default="-", metavar="PATH",
                   help="answer destination ('-' = stdout, the default)")
    p.add_argument("--deadline", type=float, metavar="SECONDS",
                   help="wall-clock budget over the whole query batch")
    p.add_argument("--cache-size", type=int, default=256, metavar="N",
                   help="LRU query-cache capacity (default 256)")
    p.add_argument("--demand", dest="demand", action="store_true",
                   default=True,
                   help="when the indexed sources changed on disk, "
                        "recompute stale answers on their demand slices "
                        "instead of serving outdated facts (the "
                        "default)")
    p.add_argument("--no-demand", dest="demand", action="store_false",
                   help="never re-analyze: stale answers are served "
                        "from the store, annotated stale (JSON: "
                        "\"stale\": true)")
    p.add_argument("--analyze-on-miss", nargs="+", metavar="FILE",
                   help="when the store is missing or unloadable, "
                        "answer from a one-shot demand analysis of "
                        "these source files instead of exiting 2")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "serve",
        help="long-lived query daemon over a store (JSON lines on "
             "stdio, or TCP with --tcp HOST:PORT)",
    )
    p.add_argument("store", help="store path written by 'repro index'")
    p.add_argument("--tcp", metavar="HOST:PORT",
                   help="listen on TCP instead of stdio (port 0 picks "
                        "an ephemeral port, announced on stderr)")
    p.add_argument("--deadline", type=float, metavar="SECONDS",
                   help="per-request wall-clock budget")
    p.add_argument("--cache-size", type=int, default=256, metavar="N",
                   help="LRU query-cache capacity (default 256)")
    p.add_argument("--access-log", metavar="PATH",
                   help="structured JSONL access log, one line per "
                        "request ('-' = stdout, the shared convention)")
    p.add_argument("--access-log-max-bytes", type=int, metavar="BYTES",
                   help="rotate the access log when it would exceed BYTES: "
                        "atomic rename to PATH.1 (previous backup replaced), "
                        "fresh PATH opened in place — long-running daemons "
                        "stop growing the log unboundedly (ignored for '-')")
    p.add_argument("--slow-ms", type=float, default=100.0, metavar="MS",
                   help="slow-request threshold for the 'slow' counter "
                        "and server.slow trace instant (default 100)")
    p.add_argument("--no-telemetry", action="store_true",
                   help="disable the per-request telemetry registry "
                        "(answers are byte-identical either way)")
    p.add_argument("--max-in-flight", type=int, metavar="N",
                   help="overload gate: shed request lines (stable "
                        "'overloaded' error code + retry hint) when N "
                        "lines are already in flight")
    p.add_argument("--rate-limit", type=float, metavar="QPS",
                   help="token-bucket rate limit in requests/second; "
                        "excess requests are shed with the 'overloaded' "
                        "code (control ops are always exempt)")
    p.add_argument("--burst", type=float, metavar="N",
                   help="token-bucket burst capacity (default: "
                        "max(1, QPS))")
    p.add_argument("--idle-timeout", type=float, default=300.0,
                   metavar="SECONDS",
                   help="per-connection read/idle timeout; a silent "
                        "peer releases its handler thread (default "
                        "300; <= 0 disables)")
    p.add_argument("--watch", type=float, metavar="SECONDS",
                   help="poll the store path and hot-swap it into the "
                        "live daemon when it changes (the reload admin "
                        "op, on a timer)")
    p.add_argument("--inject-serve-faults", metavar="SPEC",
                   help="deterministic serve-path fault injection for "
                        "chaos testing, e.g. 'seed=3,slow=0.05,"
                        "disconnect=0.02,corrupt_reload=1.0,slow_ms=10' "
                        "(docs/ROBUSTNESS.md §8)")
    p.add_argument("--no-demand", action="store_true",
                   help="disable the demand fallback: queries touching "
                        "procedures whose sources changed since 'repro "
                        "index' are answered from the (stale) store "
                        "with an explicit \"stale\": true envelope "
                        "field instead of being recomputed on their "
                        "demand slice")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadtest",
        help="replay a concurrent mixed query workload against a store "
             "and report qps + latency quantiles (p50/p90/p95/p99)",
    )
    p.add_argument("store", help="store path written by 'repro index'")
    p.add_argument("--clients", type=int, default=8, metavar="N",
                   help="concurrent TCP client threads (default 8)")
    p.add_argument("--requests", type=int, default=50, metavar="N",
                   help="requests per client (default 50)")
    p.add_argument("--mix", metavar="SPEC",
                   help="weighted op mix, e.g. "
                        "'points_to=6,alias=3,modref=1' (default: the "
                        "built-in serve-smoke mix)")
    p.add_argument("--no-repeat-half", action="store_true",
                   help="do not repeat each client's first half (the "
                        "repeat models cache-hit realism)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload shuffle seed (default 0)")
    p.add_argument("--deadline", type=float, metavar="SECONDS",
                   help="per-request deadline armed in the daemon")
    p.add_argument("--cache-size", type=int, default=256, metavar="N",
                   help="daemon LRU capacity (default 256)")
    p.add_argument("--tcp", metavar="HOST:PORT",
                   help="target an already-running daemon instead of "
                        "spawning an in-process one")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    p.add_argument("-o", "--output", default="-", metavar="PATH",
                   help="report destination ('-' = stdout, the default)")
    p.add_argument("--record", nargs="?", const="BENCH_serve.json",
                   metavar="PATH",
                   help="append this run to the serve trajectory file "
                        "(default BENCH_serve.json) and report drift "
                        "against the previous entry")
    p.add_argument("--fail-on", metavar="SPEC",
                   help="with --record: exit 1 on regression vs the "
                        "previous entry, e.g. 'p99:100%%,qps:30%%' "
                        "(p99 latency grew >100%% / throughput fell "
                        ">30%%)")
    p.add_argument("--max-p99-ms", type=float, metavar="MS",
                   help="absolute gate: exit 1 when p99 latency exceeds "
                        "MS milliseconds")
    p.add_argument("--chaos", action="store_true",
                   help="chaos mode: clients deterministically send "
                        "garbage and disconnect mid-request, tolerate "
                        "sheds/drops, and verify every ok answer "
                        "against a fault-free baseline (exit 1 on any "
                        "mismatch)")
    p.add_argument("--serve-faults", metavar="SPEC",
                   help="FaultPlan spec for the in-process daemon "
                        "(same syntax as serve --inject-serve-faults; "
                        "ignored with --tcp)")
    p.add_argument("--rate-limit", type=float, metavar="QPS",
                   help="rate-limit the in-process daemon (ignored "
                        "with --tcp)")
    p.add_argument("--burst", type=float, metavar="N",
                   help="burst capacity for --rate-limit")
    p.add_argument("--max-in-flight", type=int, metavar="N",
                   help="in-flight admission gate for the in-process "
                        "daemon (ignored with --tcp)")
    p.add_argument("--expect-store", action="append", metavar="PATH",
                   help="with --chaos: additional store(s) whose "
                        "answers are also acceptable (pass the "
                        "post-reload store when a hot swap happens "
                        "mid-run); repeatable")
    p.set_defaults(func=cmd_loadtest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        status = _fatal_status(exc)
        if status is None:
            raise
        return status


def _fatal_status(exc: Exception) -> Optional[int]:
    """Report an error that escaped a command handler; ``None`` means
    it is not one of ours and should propagate.  The frontend's and the
    analyzer's exception types are imported only here, after something
    failed, so commands that never lower a source never load them."""
    from .analysis.guards import GuardTripped
    from .frontend.parser import ParseError
    from .frontend.typebuild import FrontendError

    if isinstance(exc, ParseError):
        print(f"parse error: {exc}", file=sys.stderr)
    elif isinstance(exc, FrontendError):
        print(f"frontend error: {exc}", file=sys.stderr)
    elif isinstance(exc, GuardTripped):
        # only reachable under --strict: the budget aborts instead of
        # degrading; report which guard fired and where
        print(f"analysis aborted (strict): {exc}", file=sys.stderr)
    elif isinstance(exc, FileNotFoundError):
        print(f"error: {exc}", file=sys.stderr)
    else:
        return None
    return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
