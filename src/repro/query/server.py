"""The long-lived query daemon behind ``repro serve``.

One :class:`QueryServer` wraps one :class:`~repro.query.engine.QueryEngine`
(one loaded store) and speaks **JSON lines**: each request is one JSON
value on one line, each response is one JSON object on one line.  Two
transports share the protocol:

* **stdio** (:meth:`QueryServer.serve_stdio`) — the default; suited to
  editor integrations and test harnesses that own the child process;
* **TCP** (:meth:`QueryServer.serve_tcp`) — one ``selectors`` loop on
  the serving thread answers every connection, so many clients share
  one engine (and therefore one LRU cache: a fact one client warmed is
  a hit for every other) without handing the GIL between threads.
  Lines are answered strictly in arrival order; while one line is
  being answered (a demand re-index, a reload, an injected stall),
  every other connection waits.

Protocol
--------

A request is either a single object or an **array of objects** (a
batch — answered in order, one response line per request, so a client
can pipeline without framing ambiguity)::

    {"op": "points_to", "var": "p", "proc": "main", "id": 1}
    [{"op": "alias", "a": "p", "b": "q"}, {"op": "stats"}]

Every response is an **envelope** mirroring the CLI's 0/2/4 exit-code
convention (:mod:`repro.cli`):

* ``{"id", "ok": true,  "status": 0, "result": {...}}`` — answered;
* ``{"id", "ok": true,  "status": 4, "result": {...}}`` — answered, but
  the store was built from a *degraded* (partial) run, so the answer is
  conservative (same meaning as exit 4);
* ``{"id", "ok": false, "status": 2, "error": {"code", "message"}}`` —
  the request failed; ``code`` is the stable
  :class:`~repro.query.engine.QueryError` code (or ``deadline`` /
  ``bad-json`` / ``internal``).

Control operations (handled by the server, not the engine): ``ping``
(liveness; echoes the program name), ``shutdown`` (graceful stop; the
stdio loop returns, the TCP server unwinds and closes its socket so no
orphan remains), ``stats`` (the engine's live counters plus the
server-side telemetry snapshot — answered from the registry, never
touching the LRU), ``health`` (a cheap liveness/level probe: uptime,
in-flight count, degraded flag), and ``reload`` (hot store swap, below).

Fault tolerance (``docs/ROBUSTNESS.md`` §8)
-------------------------------------------

**Hot store swap.**  The ``reload`` admin op (or the optional
``--watch`` mtime poller, :meth:`QueryServer.start_watch`) re-reads the
store path, verifies its integrity digest, and atomically promotes a
fresh :class:`QueryEngine` under live traffic.  Every request line pins
the engine reference once when processing begins, so an in-flight
request is answered **entirely from the old or entirely from the new
store — never a torn mix**.  The LRU survives selectively: the stale
slice (procedures whose IR digests moved, plus dependents — computed by
:func:`~repro.query.invalidate.compute_stale_between_stores` from the
recorded digests, no re-lowering) is dropped, the clean slice carries
over.  A reload target that fails to load or fails its integrity check
is refused with a ``reload-failed`` error envelope while the old store
keeps serving.

**Overload protection.**  An optional max in-flight admission gate and
a token-bucket rate limiter (:class:`~repro.diagnostics.telemetry.TokenBucket`)
shed request lines *before* the engine is consulted: every request on a
shed line gets an error envelope with the stable code ``overloaded``
and a ``retry_after_ms`` hint.  Control-only lines (ping / health /
stats / shutdown / reload) are exempt — an overloaded daemon must stay
probeable and stoppable.  On TCP a line is in flight from the moment
the loop splits it off a connection's read buffer until it is answered,
and the gate judges each line by the level at its arrival, so a
pipelined burst of more than N lines sheds the excess.  An accepted
TCP connection that neither sends nor drains anything for the idle
timeout (default 300 s) is closed and counted in ``idle_timeouts``.
The loop stops reading from a connection while more than
:data:`MAX_UNSENT_BYTES` of its answers wait to be sent, so a client
that pipelines without reading cannot grow the daemon's memory or stall
other clients.  Because shedding happens before the engine, every
*non*-shed answer stays byte-identical to an unlimited server's.

**Serve-path chaos.**  Pass a :class:`~repro.diagnostics.faults.FaultPlan`
with serve sites and the daemon deterministically injects slow handlers
(``slow``), mid-request disconnects (``disconnect`` — the line is read
and processed but the answer is never written), and corrupt reload
targets (``corrupt_reload``) — the substrate of the chaos gate
(``tests/query/test_serve_gates.py``), which proves zero crashes and
byte-identical non-shed answers under sustained injected failure.

Deadlines: construct the server with ``deadline_seconds`` and every
request is answered under its own armed
:class:`~repro.analysis.guards.AnalysisBudget` — the same guards
machinery as the analysis engine; an expired budget maps to an error
envelope with code ``deadline``.

Telemetry (``docs/OBSERVABILITY.md`` §5)
----------------------------------------

Every server counts through one
:class:`~repro.diagnostics.telemetry.TelemetryRegistry` (its own, unless
one is passed in), and every request is measured **from line-read to
envelope-write** on the monotonic clock: the transport stamps
``perf_counter_ns`` the moment a line arrives, writes and flushes the
answer envelopes, and only then finalizes — so the recorded latency
covers parse, compute, serialize *and* the write.  Requests in one batch line share the line's latency
(the batch is one wire unit).  Per request the server maintains:

* histograms ``latency`` and ``latency.<op>`` (log-bucketed, 1%
  relative error, p50/p90/p99 in every snapshot);
* counters ``requests`` / ``errors`` / ``deadlines`` / ``slow`` /
  ``cache_hits`` / ``cache_misses`` (cache disposition comes from the
  engine via :meth:`QueryEngine.query`'s ``info`` out-param, so the
  cached answers stay shared and byte-identical to the engine's own);
* the fault-tolerance counters ``sheds`` (split into ``sheds.rate`` /
  ``sheds.in_flight``), ``idle_timeouts``, ``reloads`` /
  ``reload_failures``, ``fault_slow`` / ``fault_disconnects``,
  ``client_disconnects`` and ``demand_fallbacks`` — the ``stats``,
  ``health`` and ``metrics`` admin ops read them from the registry;
* gauge ``in_flight`` (lines currently being answered; the level the
  ``--max-in-flight`` gate judges);
* a server-assigned monotone request id ``rid`` (distinct from the
  client's ``id``, which the server echoes but never interprets).

The structured **access log** (``--access-log``, ``-`` = stdout) gets
one JSON line per request::

    {"cache": "hit", "code": null, "id": 7, "ms": 0.41, "ok": true,
     "op": "points_to", "peer": "127.0.0.1:52114", "rid": 12,
     "status": 0, "t": 1754550000.123456}

When a tracer is attached, each finalized request emits a
``server.request`` instant (and ``server.slow`` above the slow-request
threshold) under the vocabulary in :mod:`repro.diagnostics.trace`.

Graceful shutdown: :meth:`QueryServer.install_signal_handlers` maps
SIGTERM/SIGINT to the same path as the in-band ``shutdown`` op — stop
accepting, answer the lines already read, flush unsent answers (bounded
wait), flush the access log, write a final telemetry snapshot to the
announce stream, exit 0.
"""

from __future__ import annotations

import itertools
import json
import os
import selectors
import signal
import socket
import sys
import threading
import time
from typing import IO, TYPE_CHECKING, Optional

from ..analysis.tripped import GuardTripped
from ..diagnostics.telemetry import TelemetryRegistry, TokenBucket
from .engine import QueryEngine, QueryError
from .store import StoreError, load_store

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.guards import AnalysisBudget

__all__ = ["QueryServer"]

#: control ops the server answers itself (everything else goes to the
#: engine's OPS vocabulary); ``stats`` and ``health`` answer from the
#: live telemetry registry without touching the LRU; control-only lines
#: are exempt from overload shedding
CONTROL_OPS = ("ping", "shutdown", "stats", "health", "reload", "metrics")

#: default slow-request threshold for the ``server.slow`` instant and
#: the ``slow`` counter (milliseconds)
DEFAULT_SLOW_MS = 100.0

#: default per-connection idle timeout (seconds); a TCP peer that
#: neither sends nor drains anything for this long is disconnected
DEFAULT_IDLE_TIMEOUT = 300.0

#: backpressure: the TCP loop stops reading from a connection while more
#: than this many bytes of its answers wait to be sent
MAX_UNSENT_BYTES = 1 << 20

#: bytes one loop round reads from a ready connection
_RECV_BYTES = 1 << 16

#: how long a stopping TCP loop keeps flushing unsent answers (seconds)
_SHUTDOWN_FLUSH_SECONDS = 5.0

#: retry-after hint on in-flight-gate sheds (the level drains in
#: request time, not bucket-refill time, so a fixed small hint fits)
DEFAULT_RETRY_AFTER_MS = 50.0


class _ShutdownSignal(Exception):
    """Raised inside the stdio read loop by the signal handler so a
    blocking ``readline`` unwinds into the graceful-shutdown path."""

    def __init__(self, signame: str) -> None:
        self.signame = signame
        super().__init__(signame)


class _Pending:
    """One answered request awaiting finalization (envelope already
    serialized; telemetry/access-log recorded after the write)."""

    __slots__ = ("text", "rid", "request_id", "op", "ok", "status", "code",
                 "cache", "mode")

    def __init__(self, text, rid, request_id, op, ok, status, code, cache,
                 mode=None):
        self.text = text
        self.rid = rid
        self.request_id = request_id
        self.op = op
        self.ok = ok
        self.status = status
        self.code = code
        self.cache = cache
        self.mode = mode


class QueryServer:
    """JSON-lines request/response loop around one query engine."""

    def __init__(
        self,
        engine: QueryEngine,
        deadline_seconds: Optional[float] = None,
        telemetry: Optional[TelemetryRegistry] = None,
        access_log: Optional[IO[str]] = None,
        tracer=None,
        slow_ms: float = DEFAULT_SLOW_MS,
        store_path: Optional[str] = None,
        max_in_flight: Optional[int] = None,
        rate_limit: Optional[float] = None,
        burst: Optional[float] = None,
        idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
        faults=None,
    ) -> None:
        self.engine = engine
        self.deadline_seconds = deadline_seconds
        #: the registry every server counter and histogram lives in
        self.telemetry = telemetry = telemetry or TelemetryRegistry()
        #: structured JSONL access log stream (None = no access log)
        self.access_log = access_log
        self.trace = tracer
        self.slow_ms = slow_ms
        #: the path the store was loaded from — the ``reload`` admin op
        #: and the ``--watch`` poller re-read it; None = in-memory
        #: store, reload refused
        self.store_path = store_path
        #: admission gate: shed a request line when this many lines are
        #: already in flight (None = no gate); on TCP, lines read but
        #: not yet answered, across all connections
        self.max_in_flight = max_in_flight
        #: token-bucket rate limiter (None = unlimited); one token per
        #: request, so a batch line of N requests costs N tokens
        self.rate_limit = rate_limit
        self._bucket: Optional[TokenBucket] = (
            TokenBucket(rate_limit, burst) if rate_limit else None
        )
        #: per-connection idle timeout in seconds (None or <= 0
        #: disables — a stalled peer then keeps its connection open)
        self.idle_timeout = (
            idle_timeout if idle_timeout and idle_timeout > 0 else None
        )
        #: deterministic serve-fault plan (FaultPlan with serve sites),
        #: None = no injection
        self.faults = faults if faults is not None and getattr(
            faults, "serves_faults", False
        ) else None
        #: set once a ``shutdown`` request (in-band or signal) is
        #: handled; both transports check it to unwind cleanly
        self.shutting_down = threading.Event()
        #: store generation: 1 for the store served at startup, +1 per
        #: successful hot swap
        self.generation = 1
        self._count_lock = threading.Lock()
        self._access_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._reload_attempts = 0
        self._watch_thread: Optional[threading.Thread] = None
        self._rid = itertools.count(1)
        self._started_mono = time.perf_counter()
        #: write end of the running TCP loop's wake-up socketpair
        self._wake: Optional[socket.socket] = None
        self._transport: Optional[str] = None
        self._signal_received: Optional[str] = None
        # instrument handles are resolved once here, not per request —
        # the registry lookup (a lock plus a dict probe per instrument)
        # would otherwise dominate the finalize path's cost
        self._tel_in_flight = telemetry.gauge("in_flight")
        self._tel_requests = telemetry.counter("requests")
        self._tel_errors = telemetry.counter("errors")
        self._tel_deadlines = telemetry.counter("deadlines")
        self._tel_cache_hits = telemetry.counter("cache_hits")
        self._tel_cache_misses = telemetry.counter("cache_misses")
        self._tel_slow = telemetry.counter("slow")
        self._tel_latency = telemetry.histogram("latency")
        self._tel_sheds = telemetry.counter("sheds")
        self._tel_sheds_rate = telemetry.counter("sheds.rate")
        self._tel_sheds_in_flight = telemetry.counter("sheds.in_flight")
        self._tel_idle_timeouts = telemetry.counter("idle_timeouts")
        self._tel_reloads = telemetry.counter("reloads")
        self._tel_reload_failures = telemetry.counter("reload_failures")
        self._tel_fault_slow = telemetry.counter("fault_slow")
        self._tel_fault_disconnects = telemetry.counter("fault_disconnects")
        self._tel_client_disconnects = telemetry.counter(
            "client_disconnects"
        )
        self._tel_demand_fallbacks = telemetry.counter("demand_fallbacks")
        #: op -> per-op latency histogram, grown on first sighting.
        #: Benign data race: two threads may both resolve the same op,
        #: but the registry hands back one shared instance, so the
        #: assignments are identical.
        self._tel_latency_by_op: dict = {}

    # -- envelopes ---------------------------------------------------------

    def _ok_status(self, engine: Optional[QueryEngine] = None) -> int:
        engine = engine if engine is not None else self.engine
        return 4 if engine.degraded else 0

    def _envelope_ok(
        self, request_id, result: dict,
        engine: Optional[QueryEngine] = None,
    ) -> dict:
        return {
            "id": request_id,
            "ok": True,
            "status": self._ok_status(engine),
            "result": result,
        }

    @staticmethod
    def _envelope_error(request_id, code: str, message: str) -> dict:
        return {
            "id": request_id,
            "ok": False,
            "status": 2,
            "error": {"code": code, "message": message},
        }

    # -- admin results -----------------------------------------------------

    def uptime_seconds(self) -> float:
        return time.perf_counter() - self._started_mono

    def _stats_result(self, engine: Optional[QueryEngine] = None) -> dict:
        """The ``stats`` admin op: the engine's live counters (read
        directly — no LRU probe, no cache perturbation) plus the
        server-side block and the full telemetry snapshot."""
        engine = engine if engine is not None else self.engine
        result = engine.stats()
        result["server"] = {
            "requests": self._tel_requests.value,
            "in_flight": self._tel_in_flight.value,
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "slow_ms": self.slow_ms,
            "access_log": self.access_log is not None,
            "generation": self.generation,
            "reloads": self._tel_reloads.value,
            "reload_failures": self._tel_reload_failures.value,
            "sheds": self._tel_sheds.value,
            "idle_timeouts": self._tel_idle_timeouts.value,
            "demand_fallbacks": self._tel_demand_fallbacks.value,
            "telemetry": self.telemetry.as_dict(),
        }
        return result

    def _metrics_result(self, engine: Optional[QueryEngine] = None) -> dict:
        """The ``metrics`` admin op (also ``stats`` with ``format:
        "prometheus"``): the live registry rendered in the Prometheus
        text exposition format, server-side levels folded in as extra
        gauges — scrapeable with no JSON glue."""
        from ..diagnostics.telemetry import prometheus_text

        engine = engine if engine is not None else self.engine
        extra = {
            "server.requests": self._tel_requests.value,
            "server.in_flight": self._tel_in_flight.value,
            "server.uptime_seconds": round(self.uptime_seconds(), 3),
            "server.generation": self.generation,
            "server.reloads": self._tel_reloads.value,
            "server.reload_failures": self._tel_reload_failures.value,
            "server.sheds": self._tel_sheds.value,
            "server.idle_timeouts": self._tel_idle_timeouts.value,
            "server.demand_fallbacks": self._tel_demand_fallbacks.value,
            "server.degraded": engine.degraded,
        }
        return {
            "op": "metrics",
            "content_type": "text/plain; version=0.0.4",
            "text": prometheus_text(self.telemetry, extra_gauges=extra),
        }

    def _health_result(self, engine: Optional[QueryEngine] = None) -> dict:
        """The ``health`` admin op: a cheap liveness/level probe —
        counters and gauges only, nothing that touches the LRU or the
        store index."""
        engine = engine if engine is not None else self.engine
        return {
            "op": "health",
            "healthy": True,
            "program": engine.program,
            "degraded": engine.degraded,
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "in_flight": self._tel_in_flight.value,
            "requests": self._tel_requests.value,
            "generation": self.generation,
        }

    # -- request handling --------------------------------------------------

    def _budget(self) -> Optional[AnalysisBudget]:
        if self.deadline_seconds is None:
            return None
        from ..analysis.guards import AnalysisBudget

        budget = AnalysisBudget(deadline_seconds=self.deadline_seconds)
        budget.start()
        return budget

    def handle_request(
        self, request, info: Optional[dict] = None,
        engine: Optional[QueryEngine] = None,
    ) -> dict:
        """Answer one request object with one envelope (never raises).

        ``info``, when given, receives per-call facts that must stay out
        of the (cached, shared) answer — see :meth:`QueryEngine.query`.
        ``engine`` is the engine pinned when this request's line arrived
        (the never-torn hot-swap guarantee: every request in a line is
        answered entirely from one store, even if a ``reload`` promotes
        a new one mid-flight).
        """
        engine = engine if engine is not None else self.engine
        if not isinstance(request, dict):
            return self._envelope_error(
                None, "bad-request", "request must be a JSON object"
            )
        request_id = request.get("id")
        op = request.get("op")
        if op == "ping":
            return self._envelope_ok(
                request_id, {"op": "ping", "program": engine.program}, engine
            )
        if op == "shutdown":
            self.request_shutdown()
            return self._envelope_ok(request_id, {"op": "shutdown"}, engine)
        if op == "stats":
            if request.get("format") == "prometheus":
                return self._envelope_ok(
                    request_id, self._metrics_result(engine), engine
                )
            return self._envelope_ok(
                request_id, self._stats_result(engine), engine
            )
        if op == "metrics":
            return self._envelope_ok(
                request_id, self._metrics_result(engine), engine
            )
        if op == "health":
            return self._envelope_ok(
                request_id, self._health_result(engine), engine
            )
        if op == "reload":
            try:
                result = self._reload(request.get("path"))
            except QueryError as exc:
                return self._envelope_error(request_id, exc.code, str(exc))
            # answer from the *new* engine: the swap already happened,
            # and the reload result should carry its degraded status
            return self._envelope_ok(request_id, result, self.engine)
        if info is None:
            # direct handle_request callers still get mode/stale
            # annotations; _process_request passes its own dict so the
            # access log can record the same facts
            info = {}
        try:
            result = engine.query(request, budget=self._budget(), info=info)
        except QueryError as exc:
            return self._envelope_error(request_id, exc.code, str(exc))
        except GuardTripped as exc:
            return self._envelope_error(request_id, exc.reason, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            return self._envelope_error(request_id, "internal", str(exc))
        envelope = self._envelope_ok(request_id, result, engine)
        if info:
            # per-call annotations live in the envelope, never in the
            # result: results are shared cache entries whose bytes must
            # match across modes (the demand ≡ exhaustive contract)
            if info.get("mode") == "demand":
                envelope["mode"] = "demand"
                if info.get("demand_degraded") and envelope["status"] == 0:
                    envelope["status"] = 4
                self._tel_demand_fallbacks.inc()
            if info.get("stale"):
                envelope["stale"] = True
        return envelope

    # -- hot store swap ----------------------------------------------------

    def _reload(self, path: Optional[str] = None) -> dict:
        """Load a (new) store and atomically promote it under traffic.

        The swap is a single attribute rebind: request lines already in
        flight keep the engine they pinned (old store), lines read after
        the rebind see the new one — no request is ever answered from a
        torn mix.  The new engine shares the old engine's counters (the
        cumulative counters survive the swap) and adopts the clean slice
        of its LRU: entries whose dependent procedures all have
        unchanged IR digests (per
        :func:`~repro.query.invalidate.compute_stale_between_stores`).

        Any load failure — unreadable file, invalid JSON, unknown
        format, integrity mismatch, injected ``corrupt_reload`` fault —
        raises :class:`QueryError` with code ``reload-failed`` and
        leaves the old engine serving.
        """
        from .invalidate import compute_stale_between_stores

        target = path or self.store_path
        if target is None:
            raise QueryError(
                "reload-failed",
                "daemon was started from an in-memory store; pass "
                '{"op": "reload", "path": ...} or restart with a store path',
            )
        with self._reload_lock:
            self._reload_attempts += 1
            attempt = self._reload_attempts
            old = self.engine
            try:
                new_store = load_store(target)
                if self.faults is not None and self.faults.corrupt_reload(
                    f"{target}#{attempt}"
                ):
                    raise StoreError(
                        f"store {target}: integrity check failed "
                        "(injected corrupt_reload fault)"
                    )
            except (OSError, ValueError) as exc:
                self._tel_reload_failures.inc()
                if self.trace is not None:
                    self.trace.instant(
                        "server.reload", "server",
                        ok=False, generation=self.generation,
                    )
                raise QueryError(
                    "reload-failed",
                    f"store {target} rejected; still serving generation "
                    f"{self.generation}: {exc}",
                )
            report = compute_stale_between_stores(old.store, new_store)
            new_engine = QueryEngine(
                new_store,
                counters=old.counters,
                tracer=old.trace,
                cache_size=old.cache_size,
                # a fresh tier over the new store (fresh probe state —
                # the old tier's verdict described the old sources),
                # carrying the cumulative fallback counters
                demand=(
                    old.demand.for_store(new_store)
                    if old.demand is not None else None
                ),
            )
            carried, dropped = new_engine.adopt_cache(old, report)
            self.engine = new_engine
            with self._count_lock:
                self.generation += 1
                generation = self.generation
            self._tel_reloads.inc()
            if self.trace is not None:
                self.trace.instant(
                    "server.reload", "server",
                    ok=True, generation=generation,
                    stale=len(report.stale), carried=carried,
                )
            return {
                "op": "reload",
                "store": target,
                "program": new_engine.program,
                "generation": generation,
                "stale": {
                    "up_to_date": report.up_to_date,
                    "changed": len(report.changed),
                    "added": len(report.added),
                    "removed": len(report.removed),
                    "globals_changed": report.globals_changed,
                    "stale": len(report.stale),
                    "clean": len(report.clean),
                },
                "cache": {"carried": carried, "dropped": dropped},
            }

    def start_watch(self, interval: float, log: Optional[IO[str]] = None
                    ) -> None:
        """Poll the store path every ``interval`` seconds and hot-swap
        when its ``(mtime_ns, size)`` signature changes (``--watch``).

        A failed reload (still-being-written file, integrity mismatch)
        is logged and retried on the next change — the old store keeps
        serving throughout.  The poller is a daemon thread; it dies with
        the process and stops at shutdown.
        """
        if self.store_path is None:
            raise ValueError("--watch needs a store path to poll")
        if interval <= 0:
            raise ValueError(f"watch interval {interval} must be > 0")

        def _signature():
            try:
                st = os.stat(self.store_path)
            except OSError:
                return None
            return (st.st_mtime_ns, st.st_size)

        def _poll():
            last = _signature()
            while not self.shutting_down.wait(interval):
                sig = _signature()
                if sig is None or sig == last:
                    continue
                last = sig
                try:
                    result = self._reload()
                except QueryError as exc:
                    if log is not None:
                        log.write(f"repro: reload failed: {exc}\n")
                        log.flush()
                    continue
                if log is not None:
                    log.write(
                        f"repro: reload: generation "
                        f"{result['generation']}, "
                        f"{result['stale']['stale']} stale proc(s), "
                        f"{result['cache']['carried']} cache entr(ies) "
                        f"carried\n"
                    )
                    log.flush()

        self._watch_thread = threading.Thread(
            target=_poll, name="repro-store-watch", daemon=True
        )
        self._watch_thread.start()

    def _process_request(self, request, engine: QueryEngine) -> _Pending:
        with self._count_lock:
            rid = next(self._rid)
        info: dict = {}
        envelope = self.handle_request(request, info, engine)
        op = request.get("op") if isinstance(request, dict) else None
        error = envelope.get("error") or {}
        return _Pending(
            text=json.dumps(envelope, sort_keys=True),
            rid=rid,
            request_id=envelope.get("id"),
            op=op if isinstance(op, str) else "invalid",
            ok=bool(envelope.get("ok")),
            status=envelope.get("status"),
            code=error.get("code"),
            cache=info.get("cache"),
            mode=info.get("mode"),
        )

    def _process_line(
        self, line: str, level: Optional[int] = None
    ) -> list[_Pending]:
        """Answer one input line: one JSON request or a batch array.

        Returns one pending envelope per request (batch answers stay in
        request order).  Malformed JSON yields a single ``bad-json``
        error envelope.  Telemetry/access-log recording happens in
        :meth:`_finalize`, *after* the transport wrote the envelopes.
        ``level`` is the in-flight level when the line was read (the
        TCP loop reads several lines before answering the first); None
        means the current level.
        """
        text = line.strip()
        if not text:
            return []
        try:
            payload = json.loads(text)
        except ValueError as exc:
            with self._count_lock:
                rid = next(self._rid)
            return [
                _Pending(
                    text=json.dumps(
                        self._envelope_error(None, "bad-json", str(exc)),
                        sort_keys=True,
                    ),
                    rid=rid,
                    request_id=None,
                    op="invalid",
                    ok=False,
                    status=2,
                    code="bad-json",
                    cache=None,
                )
            ]
        requests = payload if isinstance(payload, list) else [payload]
        # pin the engine once per line: every request in this line is
        # answered from the same store, even across a concurrent reload
        engine = self.engine
        shed_reason = self._admission(requests, level)
        if shed_reason is not None:
            pending = [self._shed_request(req, shed_reason)
                       for req in requests]
        else:
            pending = [self._process_request(req, engine)
                       for req in requests]
        if (
            self.faults is not None
            and pending
            and self.faults.slow_serve(text)
        ):
            self._tel_fault_slow.inc()
            time.sleep(self.faults.slow_ms / 1000.0)
        return pending

    # -- overload protection -----------------------------------------------

    @staticmethod
    def _control_only(requests: list) -> bool:
        """Whether every request on the line is a control op (exempt
        from shedding: an overloaded daemon must stay probeable,
        reloadable and stoppable)."""
        return all(
            isinstance(req, dict) and req.get("op") in CONTROL_OPS
            for req in requests
        )

    def _admission(
        self, requests: list, level: Optional[int] = None
    ) -> Optional[tuple[str, float]]:
        """Decide whether to shed this line; returns ``(reason,
        retry_after_ms)`` to shed, None to admit.

        The in-flight gate is checked first and consumes no tokens (a
        shed caused by concurrency should not also starve the bucket);
        the token bucket then pays one token per request, so batches
        cost their true weight.  ``level`` is the in-flight level the
        line arrived at (None: the current level); either includes
        this line.
        """
        if self.max_in_flight is None and self._bucket is None:
            return None
        if not requests or self._control_only(requests):
            return None
        if self.max_in_flight is not None:
            if level is None:
                level = self._tel_in_flight.value
            if level > self.max_in_flight:
                return ("in_flight", DEFAULT_RETRY_AFTER_MS)
        if self._bucket is not None and not self._bucket.take(len(requests)):
            retry_s = self._bucket.retry_after_seconds(len(requests))
            return ("rate", max(1.0, round(retry_s * 1000.0, 3)))
        return None

    def _shed_request(self, request, reason: tuple[str, float]) -> _Pending:
        """One ``overloaded`` error envelope for a shed request.  The
        engine is never consulted, so every *non*-shed answer stays
        byte-identical to an unlimited server's."""
        why, retry_after_ms = reason
        with self._count_lock:
            rid = next(self._rid)
        self._tel_sheds.inc()
        if why == "rate":
            self._tel_sheds_rate.inc()
        else:
            self._tel_sheds_in_flight.inc()
        request_id = request.get("id") if isinstance(request, dict) else None
        op = request.get("op") if isinstance(request, dict) else None
        envelope = {
            "id": request_id,
            "ok": False,
            "status": 2,
            "error": {
                "code": "overloaded",
                "message": (
                    "server is shedding load "
                    f"({'rate limit' if why == 'rate' else 'in-flight limit'}"
                    " exceeded); retry after the hint"
                ),
                "retry_after_ms": retry_after_ms,
            },
        }
        if self.trace is not None:
            self.trace.instant(
                "server.shed", "server", reason=why, rid=rid,
            )
        return _Pending(
            text=json.dumps(envelope, sort_keys=True),
            rid=rid,
            request_id=request_id,
            op=op if isinstance(op, str) else "invalid",
            ok=False,
            status=2,
            code="overloaded",
            cache=None,
        )

    def handle_line(self, line: str) -> list[str]:
        """Answer one input line, finalizing telemetry immediately.

        The transports use the :meth:`_process_line` / :meth:`_finalize`
        pair so the measured window closes after the envelope write;
        this convenience keeps the one-call protocol surface for tests
        and embedders (the window then covers parse + compute +
        serialize only).
        """
        received_ns = time.perf_counter_ns()
        self._note_begin()
        pending: list[_Pending] = []
        try:
            pending = self._process_line(line)
        finally:
            self._finalize(pending, received_ns)
        return [p.text for p in pending]

    # -- telemetry / access log --------------------------------------------

    def _note_begin(self) -> None:
        self._tel_in_flight.add(1)

    def _finalize(
        self,
        pending: list[_Pending],
        received_ns: int,
        peer: Optional[str] = None,
    ) -> None:
        """Record each answered request after its envelope was written:
        latency (line-read to envelope-write), counters, access-log
        line, trace instants.  Always decrements the in-flight level
        (paired with :meth:`_note_begin`).

        This is the per-request hot path, so bookkeeping is batched per
        *line*: one counter increment per condition class (not per
        request), one bulk histogram record for the shared line latency,
        and one buffered access-log write (flushed on shutdown, not per
        record — a tail ``-f`` may lag, a crash loses at most a buffer).
        """
        elapsed_ms = (time.perf_counter_ns() - received_ns) / 1e6
        tracer = self.trace
        slow = elapsed_ms > self.slow_ms
        if pending:
            n = len(pending)
            self._tel_requests.inc(n)
            self._tel_latency.record_n(elapsed_ms, n)
            by_op = self._tel_latency_by_op
            errors = deadlines = hits = misses = 0
            for p in pending:
                hist = by_op.get(p.op)
                if hist is None:
                    hist = by_op[p.op] = self.telemetry.histogram(
                        f"latency.{p.op}"
                    )
                hist.record(elapsed_ms)
                if not p.ok:
                    errors += 1
                if p.code == "deadline":
                    deadlines += 1
                if p.cache == "hit":
                    hits += 1
                elif p.cache == "miss":
                    misses += 1
            if errors:
                self._tel_errors.inc(errors)
            if deadlines:
                self._tel_deadlines.inc(deadlines)
            if hits:
                self._tel_cache_hits.inc(hits)
            if misses:
                self._tel_cache_misses.inc(misses)
            if slow:
                self._tel_slow.inc(n)
        if tracer is not None:
            ms = round(elapsed_ms, 3)
            for p in pending:
                tracer.instant(
                    "server.request", "server",
                    op=p.op, status=p.status, ms=ms, rid=p.rid,
                )
                if slow:
                    tracer.instant(
                        "server.slow", "server", op=p.op, ms=ms, rid=p.rid,
                    )
        if self.access_log is not None and pending:
            now = round(time.time(), 6)
            ms = round(elapsed_ms, 3)
            peer_json = self._peer_json(peer)
            if len(pending) == 1:
                chunk = self._access_line(pending[0], now, ms, peer_json)
            else:
                chunk = "".join(
                    self._access_line(p, now, ms, peer_json)
                    for p in pending
                )
            with self._access_lock:
                self.access_log.write(chunk)
        self._tel_in_flight.add(-1)

    #: encoded-op memo for the access log (ops form a tiny vocabulary;
    #: the fallback encodes adversarial op strings safely)
    _op_json_cache: dict = {}

    @classmethod
    def _op_json(cls, op: str) -> str:
        encoded = cls._op_json_cache.get(op)
        if encoded is None:
            encoded = cls._op_json_cache[op] = json.dumps(op)
        return encoded

    _peer_json_cache: dict = {}

    @classmethod
    def _peer_json(cls, peer: Optional[str]) -> str:
        encoded = cls._peer_json_cache.get(peer)
        if encoded is None:
            if len(cls._peer_json_cache) > 4096:  # rotating client ports
                cls._peer_json_cache.clear()
            encoded = cls._peer_json_cache[peer] = json.dumps(peer)
        return encoded

    @classmethod
    def _access_line(cls, p: _Pending, now: float, ms: float,
                     peer_json: str) -> str:
        """One JSONL access-log record, hand-assembled.

        ``json.dumps`` over the whole record costs ~8x this; only the
        caller-controlled strings (``id``, unseen ``op`` spellings) go
        through the encoder for escaping — every other field is a
        number, a bool, or an internal literal (status codes,
        ``hit``/``miss``) that can never contain a quote."""
        rid = p.request_id
        if rid is None:
            id_json = "null"
        elif type(rid) is int:
            id_json = str(rid)
        else:
            id_json = json.dumps(rid)
        code_json = "null" if p.code is None else '"' + p.code + '"'
        cache_json = "null" if p.cache is None else '"' + p.cache + '"'
        # demand-fallback answers carry a "mode" field; store answers
        # keep the historical record shape
        mode_json = "" if p.mode is None else f'"mode": "{p.mode}", '
        return (
            f'{{"t": {now}, "rid": {p.rid}, "id": {id_json}, '
            f'"op": {cls._op_json(p.op)}, '
            f'"ok": {"true" if p.ok else "false"}, "status": {p.status}, '
            f'"code": {code_json}, "ms": {ms}, "cache": {cache_json}, '
            f'{mode_json}"peer": {peer_json}}}\n'
        )

    # -- graceful shutdown -------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin a graceful stop: the lines already read are answered,
        no new ones are read, and a TCP loop blocked in ``select`` is
        woken through its socketpair (one non-blocking ``send``, so
        this is safe from a signal handler and from the loop itself)."""
        self.shutting_down.set()
        wake = self._wake
        if wake is not None:
            try:
                wake.send(b"\0")
            except OSError:  # already full of wake-ups, or closed
                pass

    def install_signal_handlers(self) -> None:
        """Map SIGTERM/SIGINT onto the graceful-shutdown path (the
        daemon contract: stop accepting, drain in-flight lines, flush
        the access log, emit a final telemetry snapshot, exit 0).

        Only callable from the main thread (a Python restriction);
        the CLI installs these, tests driving transports from worker
        threads simply don't."""

        def _handler(signum, frame):
            signame = signal.Signals(signum).name
            self._signal_received = signame
            self.request_shutdown()
            if self._transport == "stdio":
                # unwind the blocking readline in the main thread
                raise _ShutdownSignal(signame)

        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, _handler)

    def _shutdown_report(self, log: IO[str]) -> None:
        """Flush the access log and write the final telemetry snapshot
        (one grep-able ``repro:``-prefixed JSON line) to ``log``."""
        if self.access_log is not None:
            with self._access_lock:
                self.access_log.flush()
        via = self._signal_received or "request"
        log.write(
            f"repro: shutdown ({via}) after "
            f"{self._tel_requests.value} request(s), "
            f"{self.uptime_seconds():.3f}s uptime\n"
        )
        snapshot = json.dumps(self.telemetry.as_dict(), sort_keys=True)
        log.write(f"repro: telemetry {snapshot}\n")
        log.flush()

    # -- stdio transport ---------------------------------------------------

    def serve_stdio(
        self,
        stdin: Optional[IO[str]] = None,
        stdout: Optional[IO[str]] = None,
        log: Optional[IO[str]] = None,
    ) -> int:
        """Serve JSON lines until EOF, a ``shutdown`` request, or a
        handled signal.

        Returns the exit status for the CLI: 0 on a clean stop (the
        degraded state is carried per-envelope, not in the exit code —
        a daemon that answered every request shut down cleanly).
        """
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        log = log if log is not None else sys.stderr
        self._transport = "stdio"
        try:
            for line in stdin:
                received_ns = time.perf_counter_ns()
                self._note_begin()
                pending: list[_Pending] = []
                try:
                    pending = self._process_line(line)
                    for p in pending:
                        stdout.write(p.text + "\n")
                    stdout.flush()
                finally:
                    self._finalize(pending, received_ns, peer="stdio")
                if self.shutting_down.is_set():
                    break
        except _ShutdownSignal:
            pass
        if self.shutting_down.is_set() or self._signal_received:
            self._shutdown_report(log)
        return 0

    # -- TCP transport -----------------------------------------------------

    def serve_tcp(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ready_cb=None,
        log=None,
    ) -> int:
        """Serve JSON lines over TCP until a ``shutdown`` request or a
        handled signal.

        ``port=0`` binds an ephemeral port; the actual address is
        announced via ``ready_cb((host, port))`` (tests) and one
        ``repro: serving <program> on HOST:PORT`` line on ``log``
        (defaults to stderr — the CLI contract scripts can wait for).
        Every connection is served by one selector loop on the calling
        thread (:class:`_TcpLoop`).  On shutdown the listening socket
        closes, the lines already read are answered, unsent answers
        are flushed (bounded wait), the access log is flushed and the
        final telemetry snapshot lands on ``log`` before this returns —
        a clean shutdown leaves no orphan socket behind.
        """
        log = log if log is not None else sys.stderr
        self._transport = "tcp"
        listener = socket.create_server((host, port))
        loop = _TcpLoop(self, listener, log)
        try:
            # publish the wake-up socket before the loop first checks
            # shutting_down, so a concurrent request_shutdown either is
            # seen by that check or wakes the select
            self._wake = loop.wake_w
            bound_host, bound_port = listener.getsockname()[:2]
            log.write(
                f"repro: serving {self.engine.program} on "
                f"{bound_host}:{bound_port}\n"
            )
            log.flush()
            if ready_cb is not None:
                ready_cb((bound_host, bound_port))
            loop.run()
        finally:
            self._wake = None
            loop.close()
        self._shutdown_report(log)
        return 0


class _Connection:
    """One accepted TCP peer of the selector loop: the bytes read but
    not yet split into lines, and the answer bytes not yet sent."""

    __slots__ = ("sock", "peer", "inbuf", "outbuf", "last_active", "eof",
                 "events", "closed")

    def __init__(self, sock: socket.socket, peer: str, now: float) -> None:
        self.sock = sock
        self.peer = peer
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        #: monotonic time of the last byte received or sent
        self.last_active = now
        #: the peer closed its side; answer what was read, then close
        self.eof = False
        self.events = selectors.EVENT_READ
        self.closed = False

    def split_lines(self, data: bytes) -> list:
        """Buffer ``data``; return the complete lines it finishes
        (newlines stripped), keeping any unterminated tail."""
        if b"\n" not in data:
            self.inbuf += data
            return []
        if self.inbuf:
            self.inbuf += data
            data = bytes(self.inbuf)
        *lines, rest = data.split(b"\n")
        self.inbuf = bytearray(rest)
        return lines


class _TcpLoop:
    """The TCP transport: one ``selectors`` loop answering every
    connection of one :meth:`QueryServer.serve_tcp` call.

    Each round waits for readiness, sends queued answer bytes to the
    writable connections, reads once from each readable one and splits
    complete lines off its buffer — every such line is in flight from
    here on — and then answers those lines in arrival order through the
    server's ``_process_line`` → send → ``_finalize`` sequence.  The
    answers to one line go out in one ``send``; bytes the socket does
    not take wait in the connection's ``outbuf`` for ``EVENT_WRITE``.
    """

    def __init__(self, server: QueryServer, listener: socket.socket,
                 log) -> None:
        self.server = server
        self.listener = listener
        self.log = log
        self.sel = selectors.DefaultSelector()
        self.conns: set = set()
        self.wake_r, self.wake_w = socket.socketpair()
        for sock in (listener, self.wake_r, self.wake_w):
            sock.setblocking(False)
        self.sel.register(listener, selectors.EVENT_READ)
        self.sel.register(self.wake_r, selectors.EVENT_READ)

    def run(self) -> None:
        server = self.server
        idle = server.idle_timeout
        #: no connection can reach its idle timeout before this moment
        next_sweep: Optional[float] = None
        while not server.shutting_down.is_set():
            timeout = (
                None if next_sweep is None
                else max(0.0, next_sweep - time.monotonic())
            )
            events = self.sel.select(timeout)
            now = time.monotonic()
            received_ns = time.perf_counter_ns()
            ready = []
            lines = []
            for key, mask in events:
                conn = key.data
                if conn is None:
                    if key.fileobj is self.listener:
                        if (self._accept(now) and idle is not None
                                and next_sweep is None):
                            next_sweep = now + idle
                    else:
                        self.wake_r.recv(4096)  # a shutdown wake-up
                    continue
                ready.append(conn)
                if mask & selectors.EVENT_WRITE:
                    self._flush(conn, now)
                if mask & selectors.EVENT_READ and not conn.closed:
                    for raw in self._read(conn, now):
                        server._note_begin()
                        lines.append(
                            (conn, raw, server._tel_in_flight.value)
                        )
            for conn, raw, level in lines:
                if conn.closed:
                    # dropped mid-round: its later lines go unanswered
                    server._finalize([], received_ns)
                    continue
                try:
                    self._answer(conn, raw, received_ns, level)
                except Exception as exc:
                    # never a traceback for one connection's trouble:
                    # one grep-able line, and the daemon serves on
                    self.log.write(
                        f"repro: connection error from {conn.peer}: "
                        f"{exc!r}\n"
                    )
                    self.log.flush()
                    self._close(conn)
            for conn in ready:
                self._settle(conn)
            if next_sweep is not None and now >= next_sweep:
                next_sweep = self._sweep(now, idle)

    # -- per-connection steps ----------------------------------------------

    def _accept(self, now: float) -> bool:
        """Accept every pending connection; True when any was."""
        accepted = False
        while True:
            try:
                sock, addr = self.listener.accept()
            except OSError:  # BlockingIOError: none left
                return accepted
            sock.setblocking(False)
            conn = _Connection(sock, "%s:%s" % addr[:2], now)
            self.sel.register(sock, selectors.EVENT_READ, conn)
            self.conns.add(conn)
            accepted = True

    def _read(self, conn: _Connection, now: float) -> list:
        """One ``recv``; the complete lines it finishes."""
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return []
        except OSError:  # peer reset mid-read
            self._close(conn)
            return []
        conn.last_active = now
        if data:
            return conn.split_lines(data)
        # EOF: like readline, an unterminated last line is still a line
        conn.eof = True
        tail = bytes(conn.inbuf)
        conn.inbuf.clear()
        return [tail] if tail else []

    def _answer(self, conn: _Connection, raw: bytes, received_ns: int,
                level: int) -> None:
        server = self.server
        line = raw.decode("utf-8", errors="replace")
        pending: list[_Pending] = []
        dropped = False
        try:
            pending = server._process_line(line, level)
            if (
                server.faults is not None
                and pending
                and server.faults.drop_connection(line.strip())
            ):
                # injected mid-request disconnect: the line was fully
                # processed (and is finalized below — the accounting
                # invariant holds), but the answer never reaches the peer
                server._tel_fault_disconnects.inc()
                dropped = True
            elif pending and not self._send(conn, pending):
                # peer went away mid-write; the full pending list still
                # finalizes so the counters account for every read line
                server._tel_client_disconnects.inc()
                dropped = True
        finally:
            server._finalize(pending, received_ns, peer=conn.peer)
        if dropped:
            self._close(conn)

    def _send(self, conn: _Connection, pending: list) -> bool:
        """Queue one line's answers, sending at once when nothing else
        is queued; False when the peer is gone."""
        data = "".join([p.text + "\n" for p in pending]).encode("utf-8")
        if conn.outbuf:
            conn.outbuf += data
            return True
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            return False
        if sent < len(data):
            conn.outbuf += data[sent:]
        return True

    def _flush(self, conn: _Connection, now: float) -> None:
        """Send what the socket takes of the queued answer bytes."""
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            return
        except OSError:
            self.server._tel_client_disconnects.inc()
            self._close(conn)
            return
        del conn.outbuf[:sent]
        conn.last_active = now

    def _settle(self, conn: _Connection) -> None:
        """Close a finished connection, or re-arm its interest: read
        unless the peer closed or too many answer bytes wait (the
        backpressure rule), write while answer bytes wait."""
        if conn.closed:
            return
        if conn.eof and not conn.outbuf:
            self._close(conn)
            return
        events = 0
        if not conn.eof and len(conn.outbuf) <= MAX_UNSENT_BYTES:
            events |= selectors.EVENT_READ
        if conn.outbuf:
            events |= selectors.EVENT_WRITE
        if events != conn.events:
            self.sel.modify(conn.sock, events, conn)
            conn.events = events

    def _sweep(self, now: float, idle: float) -> Optional[float]:
        """Close the connections idle for ``idle`` seconds; return the
        next moment one can be."""
        next_sweep = None
        for conn in list(self.conns):
            deadline = conn.last_active + idle
            if deadline <= now:
                self.server._tel_idle_timeouts.inc()
                if self.server.trace is not None:
                    self.server.trace.instant(
                        "server.idle_timeout", "server", peer=conn.peer,
                    )
                self._close(conn)
            elif next_sweep is None or deadline < next_sweep:
                next_sweep = deadline
        return next_sweep

    def _close(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self.conns.discard(conn)
        self.sel.unregister(conn.sock)
        conn.sock.close()

    def close(self) -> None:
        """Stop accepting, give unsent answers up to
        ``_SHUTDOWN_FLUSH_SECONDS`` in all to reach their peers, and
        close every socket."""
        self.listener.close()
        deadline = time.monotonic() + _SHUTDOWN_FLUSH_SECONDS
        for conn in list(self.conns):
            remaining = deadline - time.monotonic()
            if conn.outbuf and remaining > 0:
                try:
                    conn.sock.settimeout(remaining)
                    conn.sock.sendall(conn.outbuf)
                except OSError:
                    pass
            self._close(conn)
        self.sel.close()
        self.wake_r.close()
        self.wake_w.close()
