"""``repro serve``: the long-lived query daemon over one store."""

from __future__ import annotations

import argparse
import json
import sys

from ..ioutil import RotatingLineWriter, out_stream
from . import EXIT_ERROR


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


def _tcp_addr(spec: str):
    """``HOST:PORT`` as a ``(host, port)`` pair, or None after printing
    the usage error."""
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        print(f"error: --tcp takes HOST:PORT, got {spec!r}", file=sys.stderr)
        return None
    return host, int(port)


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve demand queries from a persisted store (JSON lines over
    stdio, or TCP with --tcp HOST:PORT), with per-request telemetry and
    an optional structured access log (docs/OBSERVABILITY.md §5)."""
    from contextlib import ExitStack

    from ..query import QueryEngine, load_store
    from ..query.server import QueryServer

    try:
        store = load_store(args.store)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        # a corrupted/truncated/unknown-format store must refuse to
        # serve with one repro: line and exit 2, never a traceback
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_ERROR
    addr = _tcp_addr(args.tcp) if args.tcp else None
    if args.tcp and addr is None:
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
        if addr is not None:
            return server.serve_tcp(*addr)
        return server.serve_stdio()


COMMANDS = {
    "serve": (add_serve_arguments, cmd_serve),
}
