"""``repro table2 | table3 | report | diff``: the paper's tables, the
reproduction report, and the reader of recorded snapshots."""

from __future__ import annotations

import argparse
import json
import sys

from . import EXIT_ERROR, EXIT_OK


def add_table2_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--names", help="comma-separated subset of benchmarks")
    p.add_argument("--json", action="store_true",
                   help="emit the rows as JSON instead of the text table")


def add_diff_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("old", help="baseline snapshot path ('-' = stdin)")
    p.add_argument("new", help="candidate snapshot path ('-' = stdin)")
    p.add_argument("--fail-on", metavar="SPEC",
                   help="comma-separated drift classes that make the exit "
                        "code 1, e.g. 'precision-loss,shape-change'")
    p.add_argument("--json", action="store_true",
                   help="emit the classified drift report as JSON")


def cmd_table2(args: argparse.Namespace) -> int:
    from ..bench import table2_rows, table2_text

    names = args.names.split(",") if args.names else None
    rows = table2_rows(names=names)
    if args.json:
        print(json.dumps([r.as_dict() for r in rows], indent=2, sort_keys=True))
    else:
        print(table2_text(rows))
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    from ..bench import table3_text

    print(table3_text())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate the full paper-vs-measured comparison (EXPERIMENTS.md)."""
    from ..bench import invocation_rows, table2_text, table3_text

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
    from .. import AnalyzerOptions, analyze_source

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


def cmd_diff(args: argparse.Namespace) -> int:
    """Compare two snapshots; classify + report drift, honoring --fail-on."""
    from ..diagnostics.diff import diff_snapshots, parse_fail_on
    from ..diagnostics.snapshot import load_snapshot

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
        report = diff_snapshots(old, new)
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


COMMANDS = {
    "table2": (add_table2_arguments, cmd_table2),
    "table3": (None, cmd_table3),
    "report": (None, cmd_report),
    "diff": (add_diff_arguments, cmd_diff),
}
