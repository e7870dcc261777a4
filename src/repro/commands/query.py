"""``repro query``: answer queries one-shot from a store.

This is the path a one-shot query compiles on every run, so it imports
the store, the engine and, for stores with recorded sources, the demand
tier's staleness probe, and nothing of the analyzer until a source has
changed (docs/QUERY.md §7).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from ..ioutil import out_stream, write_text
from . import EXIT_ERROR, EXIT_OK, EXIT_PARTIAL


def add_query_arguments(p: argparse.ArgumentParser) -> None:
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
                        "recompute stale answers from a fresh in-memory "
                        "index instead of serving outdated facts (the "
                        "default)")
    p.add_argument("--no-demand", dest="demand", action="store_false",
                   help="never re-analyze: stale answers are served "
                        "from the store, annotated stale (JSON: "
                        "\"stale\": true)")
    p.add_argument("--analyze-on-miss", nargs="+", metavar="FILE",
                   help="when the store is missing or unloadable, "
                        "answer from a one-shot demand analysis of "
                        "these source files instead of exiting 2")


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
    ``forced_mode`` marks every answer when the engine serves an
    in-memory index of the sources (no store to be stale against)."""
    from ..analysis.tripped import GuardTripped
    from ..query import QueryError, parse_query_spec

    budget = None
    if args.deadline is not None:
        from ..analysis.guards import AnalysisBudget

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
        write_text(args.output, json.dumps(payload, indent=2, sort_keys=True))
    else:
        with out_stream(args.output) as fh:
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
            "were recomputed from the edited sources (mode: demand)",
            file=sys.stderr,
        )
    elif stale_seen:
        error = engine.demand.stats().get("error") if engine.demand else None
        why, fix = (
            (f"the edited sources cannot be analyzed ({error})",
             "fix them, or re-run 'repro index'") if error
            else ("demand mode is off",
                  "re-run 'repro index', or drop --no-demand")
        )
        print(
            "repro: warning: the store is stale for some queried facts "
            f"and {why}; those answers may be outdated ({fix})",
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
    """The ``--analyze-on-miss`` path: no store — index the given
    sources in memory, as the demand tier does, and answer from that."""
    from ..analysis.demand import fresh_analysis_state, index_in_memory
    from ..frontend.parser import load_project_files
    from ..query import QueryEngine

    fresh_analysis_state()
    program = load_project_files(args.analyze_on_miss)
    if "main" not in program.procedures:
        print("error: no analyzable main procedure", file=sys.stderr)
        return EXIT_ERROR
    store = index_in_memory(program, sources=args.analyze_on_miss)
    engine = QueryEngine(store, cache_size=args.cache_size)
    return _answer_query_specs(args, engine, forced_mode="demand")


def cmd_query(args: argparse.Namespace) -> int:
    """Answer demand queries from a persisted store; when the indexed
    sources have been edited since, stale answers are recomputed from
    the edited sources instead of silently served (docs/QUERY.md §6)."""
    from ..query import QueryEngine, load_store

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
        from ..analysis.demand import DemandTier

        demand = DemandTier(
            store, enabled=args.demand, cache_size=args.cache_size
        )
    engine = QueryEngine(store, cache_size=args.cache_size, demand=demand)
    return _answer_query_specs(args, engine)


COMMANDS = {
    "query": (add_query_arguments, cmd_query),
}
