"""Demand-driven analysis benchmark (docs/QUERY.md §6).

Two modes:

**Sweep** (default): for every Table 2 benchmark, index a scratch copy,
edit ``main``, and answer from the demand tier over the pre-edit store
(timed: the first answer pays lowering, staleness, the whole-program
analysis and the in-memory store build; warm answers hit the tier's
engine).  The answers must be byte-identical to a fresh index of the
edited copy (also timed: lower, analyze, build the store).

**CI gate** (``--ci-gate compiler``): the end-to-end freshness contract —
index the compiler benchmark with a subprocess ``repro index``, serve the
store from an in-process :class:`QueryServer` with the demand tier
attached, edit one procedure, and assert that

* the first post-edit query is answered with ``mode: demand``,
* the demand answer is byte-identical to the answer after a full
  re-index + hot reload, and
* a warm demand query is at least ``--min-speedup`` (default 10x)
  faster than the full re-index.

Usage::

    python benchmarks/bench_demand.py [--programs NAME...]
    python benchmarks/bench_demand.py --ci-gate compiler

Exit 0 on success; an equality mismatch or a missed speedup gate exits
non-zero (CI treats both as a failed gate).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.analysis.demand import (  # noqa: E402
    DemandTier,
    fresh_analysis_state,
    index_in_memory,
)
from repro.bench.programs import PROGRAMS, source_path  # noqa: E402
from repro.frontend.parser import load_project_files  # noqa: E402
from repro.query.engine import QueryEngine  # noqa: E402
from repro.query.server import QueryServer  # noqa: E402
from repro.query.store import load_store  # noqa: E402

#: queries compared per benchmark in the sweep (full equality is the
#: hypothesis property test's job; the sweep samples for sanity)
_SWEEP_QUERIES = 8
_WARM_ITERATIONS = 50


def _query_specs(store: dict, cap: int) -> list[tuple[str, str]]:
    """Up to ``cap`` (proc, var) pairs from the store index, main first
    (the sweep times realistic per-proc points-to queries)."""
    specs: list[tuple[str, str]] = []
    procs = store["index"]["procedures"]
    names = sorted(procs)
    if "main" in procs:
        names.remove("main")
        names.insert(0, "main")
    for pname in names:
        for var in sorted(procs[pname]["vars"]):
            specs.append((pname, var))
            if len(specs) >= cap:
                return specs
    return specs


def _index(path: str, name: str) -> dict:
    fresh_analysis_state()
    program = load_project_files([path], name=name)
    return index_in_memory(program, program_name=name, sources=[path])


def _same(a: dict, b: dict) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def sweep_row(name: str) -> dict:
    """One sweep row: the demand tier vs a fresh index on ``name``."""
    row: dict = {"name": name, "error": None}
    tmp = tempfile.mkdtemp(prefix="bench_demand_")
    try:
        src = os.path.join(tmp, f"{name}.c")
        shutil.copyfile(source_path(name), src)
        store = _index(src, name)
        with open(src, "r", encoding="utf-8") as fh:
            edited = _inject_edit(fh.read())
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(edited)

        # exhaustive: what `repro index` of the edited copy would store
        t0 = time.perf_counter()
        fresh = _index(src, name)
        exhaustive_seconds = time.perf_counter() - t0
        store_engine = QueryEngine(fresh)
        row["procedures"] = len(fresh["index"]["procedures"])
        row["exhaustive_seconds"] = round(exhaustive_seconds, 6)

        specs = _query_specs(fresh, _SWEEP_QUERIES)
        if not specs:
            row["error"] = "no queryable variables in store index"
            return row
        requests = [
            {"op": "points_to", "var": var, "proc": proc} for proc, var in specs
        ]

        # demand: the tier over the pre-edit store, as a daemon runs it
        tier = DemandTier(store)
        t0 = time.perf_counter()
        tier.probe()
        first = tier.answer(dict(requests[0]))
        row["demand_seconds"] = round(time.perf_counter() - t0, 6)

        samples = []
        for _ in range(_WARM_ITERATIONS):
            t0 = time.perf_counter()
            tier.answer(dict(requests[0]))
            samples.append(time.perf_counter() - t0)
        row["warm_query_ms"] = round(statistics.median(samples) * 1000, 4)

        row["equal"] = _same(first, store_engine.query(dict(requests[0]))) and all(
            _same(tier.answer(dict(req)), store_engine.query(dict(req)))
            for req in requests[1:]
        )
        if row["demand_seconds"]:
            row["speedup"] = round(
                exhaustive_seconds / row["demand_seconds"], 2
            )
    except Exception as exc:  # record, don't abort the sweep
        row["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return row


def run_sweep(names: list[str]) -> bool:
    ok = True
    print(
        f"{'program':<12} {'procs':>5} {'exhaustive':>10} "
        f"{'demand':>8} {'warm ms':>8} {'speedup':>8}  equal"
    )
    for name in names:
        row = sweep_row(name)
        if row.get("error"):
            ok = False
            print(f"{name:<12} ERROR: {row['error']}")
            continue
        if row.get("equal") is False:
            ok = False
        print(
            f"{name:<12} {row['procedures']:>5} "
            f"{row['exhaustive_seconds']:>9.3f}s {row['demand_seconds']:>7.3f}s "
            f"{row['warm_query_ms']:>8.3f} {row.get('speedup', 0.0):>7.1f}x  "
            f"{row.get('equal')}"
        )
    return ok


def _inject_edit(source: str) -> str:
    """Add a new local to ``main`` on its opening-brace line — enough to
    change the content digest and mark main stale, without shifting the
    lines (and the line-named heap sites) below it."""
    at = re.search(r"\bmain\s*\(", source).end()
    brace = source.index("{", at)
    return (
        source[: brace + 1]
        + " int __demand_edit = 0; (void)__demand_edit;"
        + source[brace + 1:]
    )


def ci_gate(name: str, min_speedup: float) -> int:
    """The CI freshness contract on benchmark ``name`` (see module doc)."""
    if name not in {p.name for p in PROGRAMS}:
        print(f"bench_demand: unknown benchmark {name!r}", file=sys.stderr)
        return 2
    tmp = tempfile.mkdtemp(prefix="bench_demand_")
    try:
        src = os.path.join(tmp, f"{name}.c")
        store_path = os.path.join(tmp, f"{name}.store.json")
        shutil.copyfile(source_path(name), src)

        def reindex(force: bool = False) -> float:
            cmd = [sys.executable, "-m", "repro", "index", src, "-o", store_path]
            if force:
                cmd.append("--force")
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")]
                + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            seconds = time.perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(f"repro index failed: {proc.stderr.strip()}")
            return seconds

        reindex()
        store = load_store(store_path)
        tier = DemandTier(store, enabled=True)
        engine = QueryEngine(store, demand=tier)
        server = QueryServer(engine, store_path=store_path)

        proc = "main" if "main" in store["index"]["procedures"] else sorted(
            store["index"]["procedures"]
        )[0]
        variables = sorted(store["index"]["procedures"][proc]["vars"])
        if not variables:
            print(f"bench_demand: no variables in {proc}", file=sys.stderr)
            return 2
        request = {"op": "points_to", "var": variables[0], "proc": proc}

        baseline = server.handle_request(dict(request))
        assert baseline["ok"] and "mode" not in baseline, baseline
        print(f"baseline answer from store: {variables[0]}@{proc} ok")

        # edit one procedure: the daemon must keep answering, via demand
        with open(src, "r", encoding="utf-8") as fh:
            edited = _inject_edit(fh.read())
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(edited)

        t0 = time.perf_counter()
        first = server.handle_request(dict(request))
        first_seconds = time.perf_counter() - t0
        if not (first.get("ok") and first.get("mode") == "demand"):
            print(f"bench_demand: post-edit answer not in demand mode: {first}", file=sys.stderr)
            return 1
        print(
            f"post-edit query answered with mode=demand in {first_seconds:.3f}s "
            "(edit -> first fresh answer)"
        )

        samples = []
        for _ in range(_WARM_ITERATIONS):
            t0 = time.perf_counter()
            server.handle_request(dict(request))
            samples.append(time.perf_counter() - t0)
        warm_seconds = statistics.median(samples)
        print(f"warm demand query: {warm_seconds * 1000:.3f}ms (median of {_WARM_ITERATIONS})")

        reindex_seconds = reindex(force=True)
        print(f"full re-index: {reindex_seconds:.3f}s")
        reload_env = server.handle_request({"op": "reload"})
        if not reload_env.get("ok"):
            print(f"bench_demand: reload failed: {reload_env}", file=sys.stderr)
            return 1
        after = server.handle_request(dict(request))
        assert after["ok"] and "mode" not in after, after

        identical = json.dumps(first["result"], sort_keys=True) == json.dumps(
            after["result"], sort_keys=True
        )
        speedup = reindex_seconds / warm_seconds if warm_seconds else float("inf")
        print(
            f"demand answer byte-identical to post-reindex answer: {identical}; "
            f"warm demand vs re-index speedup: {speedup:.0f}x (gate: {min_speedup:.0f}x)"
        )

        failures = []
        if not identical:
            failures.append("demand answer differs from post-reindex answer")
        if speedup < min_speedup:
            failures.append(
                f"speedup {speedup:.1f}x below the {min_speedup:.0f}x gate"
            )

        if failures:
            for line in failures:
                print(f"bench_demand: GATE FAILED: {line}", file=sys.stderr)
            return 1
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="demand-driven analysis benchmark"
    )
    parser.add_argument(
        "--ci-gate",
        metavar="NAME",
        help="run the CI freshness gate on one benchmark instead of the sweep",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="warm-demand-vs-reindex speedup the gate requires (default 10)",
    )
    parser.add_argument(
        "--programs",
        nargs="+",
        metavar="NAME",
        help="sweep only these benchmarks (default: all)",
    )
    args = parser.parse_args(argv)

    if args.ci_gate:
        return ci_gate(args.ci_gate, args.min_speedup)

    names = args.programs or [p.name for p in PROGRAMS]
    unknown = sorted(set(names) - {p.name for p in PROGRAMS})
    if unknown:
        print(f"bench_demand: unknown benchmarks: {', '.join(unknown)}", file=sys.stderr)
        return 2
    return 0 if run_sweep(names) else 1


if __name__ == "__main__":
    sys.exit(main())
