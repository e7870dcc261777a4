"""``repro serve | loadtest``: the long-lived query daemon, and a load
generator that replays a mixed workload against it."""

from __future__ import annotations

import argparse
import json
import sys

from ..ioutil import RotatingLineWriter, out_stream, write_text
from . import EXIT_ERROR, EXIT_OK


def add_serve_arguments(p: argparse.ArgumentParser) -> None:
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
                   help="per-connection idle timeout; a peer that "
                        "neither sends nor reads for this long is "
                        "disconnected (default 300; <= 0 disables)")
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
                        "field instead of being recomputed from the "
                        "edited sources")


def add_loadtest_arguments(p: argparse.ArgumentParser) -> None:
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


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve demand queries from a persisted store (JSON lines over
    stdio, or TCP with --tcp HOST:PORT), with per-request telemetry and
    an optional structured access log (docs/OBSERVABILITY.md §5)."""
    from contextlib import ExitStack

    from ..diagnostics.telemetry import TelemetryRegistry
    from ..query import QueryEngine, load_store
    from ..query.server import QueryServer

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
        from ..diagnostics.faults import FaultPlan

        try:
            faults = FaultPlan.from_spec(args.inject_serve_faults)
        except ValueError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return EXIT_ERROR
    demand = None
    if store.get("sources"):
        from ..analysis.demand import DemandTier

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
                    out_stream(args.access_log)
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
    from ..bench.loadgen import parse_mix, run_loadtest
    from ..bench.trajectory import (
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
        from ..diagnostics.faults import FaultPlan

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
        write_text(args.output,
                    json.dumps(payload, indent=2, sort_keys=True))
    else:
        with out_stream(args.output) as fh:
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


COMMANDS = {
    "serve": (add_serve_arguments, cmd_serve),
    "loadtest": (add_loadtest_arguments, cmd_loadtest),
}
