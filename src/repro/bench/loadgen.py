"""Load generator for the query daemon (``repro loadtest``).

The serving story's measurement substrate: spawn N concurrent TCP
clients, each replaying a deterministic mixed query workload against one
running daemon (``repro serve --tcp``), and report **throughput**
(queries per second over the whole run) and **latency quantiles**
(p50/p90/p95/p99/max, measured client-side from request-write to
response-read on the monotonic clock).

Design points:

* **Per-thread histograms, merged at the end.**  Every client thread
  records into its own
  :class:`~repro.diagnostics.telemetry.LogHistogram`; the report folds
  them with the histogram's exact ``merge`` — zero cross-thread
  contention on the measurement path, and a production exercise of the
  mergeability the telemetry tests pin.
* **Deterministic workloads.**  The op mix is weighted
  (:data:`DEFAULT_MIX`) and drawn from the store's own index with
  ``random.Random(seed)``, so two runs over the same store replay the
  same requests in the same per-client order.
* **Cache-hit realism.**  With ``repeat_half=True`` (the default) the
  second half of every client's workload repeats its first half — the
  same discipline as the CI serve smoke — so the shared LRU must show
  hits and the report can carry a meaningful hit rate.
* **An external daemon.**  The generator never starts the daemon it
  measures: the daemon runs in its own process with its own flags
  (deadline, cache size, overload gates, injected faults), and the
  clients reach it at ``addr``.  The report's cache figures are the
  difference of the daemon's ``stats`` before and after the run, so
  several runs against one daemon each report only their own hits and
  misses.
* **Chaos mode** (``repro loadtest --chaos`` — docs/ROBUSTNESS.md §8).
  Each client misbehaves deterministically
  (``random.Random(f"chaos:{seed}:{i}")``): ~8% of its sends are
  non-JSON garbage lines, ~8% are mid-request disconnects (send, close
  without reading, reconnect).  Empty reads (the daemon's injected
  ``disconnect`` fault) become ``server_drops`` + a reconnect instead of
  a failure; ``overloaded`` envelopes are counted as ``sheds``, not
  errors.  Every ``ok`` answer is verified against a fault-free baseline
  (:func:`baseline_answers` — the union over one or more stores, so a
  mid-run hot swap may answer old-or-new but never torn) and the report
  carries the accounting block the chaos gate asserts on: **every
  request the daemon finalized is an answer read, a deliberate client
  disconnect, or a server drop**.

The report is a one-run gate (``--max-p99-ms``, the chaos accounting),
not a performance record: throughput and latency are recorded and
compared run over run by the repo benchmark (``benchmarks/perf/README.md``),
whose serve workloads reuse :func:`build_workload`.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from typing import Optional

from ..ratio import safe_ratio
from ..diagnostics.telemetry import LogHistogram

__all__ = [
    "DEFAULT_MIX",
    "LoadReport",
    "baseline_answers",
    "build_workload",
    "parse_mix",
    "run_clients",
    "run_loadtest",
]

#: chaos-mode misbehavior rates (per request draw, per client)
CHAOS_GARBAGE_RATE = 0.08
CHAOS_DISCONNECT_RATE = 0.08

#: how many answer-mismatch samples the chaos report keeps verbatim
CHAOS_MISMATCH_SAMPLES = 5

#: default weighted op mix (weights are relative draw frequencies); the
#: shape mirrors what the §7 clients actually ask: mostly points-to and
#: alias, a sprinkle of MOD/REF and call-graph questions
DEFAULT_MIX = {
    "points_to": 6,
    "alias": 3,
    "modref": 1,
    "pointed_by": 1,
    "callees": 1,
    "callers": 1,
    "reaches": 1,
}

#: quantiles the report exports (plus max), chosen to match the ROADMAP
#: open item ("latency histograms p50/p99")
REPORT_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def parse_mix(spec: Optional[str]) -> dict[str, int]:
    """Parse an ``op=weight,op=weight`` mix spec (None = default mix)."""
    if not spec:
        return dict(DEFAULT_MIX)
    mix: dict[str, int] = {}
    for part in spec.split(","):
        op, _, weight = part.partition("=")
        op = op.strip().replace("-", "_")
        if op not in DEFAULT_MIX:
            raise ValueError(
                f"unknown op {op!r} in mix spec (choose from "
                f"{', '.join(sorted(DEFAULT_MIX))})"
            )
        try:
            w = int(weight) if weight else 1
        except ValueError:
            raise ValueError(f"bad weight in mix spec: {part!r}")
        if w < 0:
            raise ValueError(f"negative weight in mix spec: {part!r}")
        if w:
            mix[op] = w
    if not mix:
        raise ValueError(f"empty mix spec: {spec!r}")
    return mix


def _request_pools(store: dict) -> dict[str, list[dict]]:
    """Concrete request candidates per op, drawn from the store's own
    index (every generated request names real procedures/variables, so
    answers exercise the fact tables, not the error paths)."""
    procs = store["index"]["procedures"]
    pools: dict[str, list[dict]] = {op: [] for op in DEFAULT_MIX}
    names = sorted(procs)
    for pname in names:
        rec = procs[pname]
        pool = sorted(rec["vars"])
        for var in pool:
            pools["points_to"].append(
                {"op": "points_to", "var": var, "proc": pname}
            )
        for i in range(len(pool) - 1):
            pools["alias"].append(
                {"op": "alias", "a": pool[i], "b": pool[i + 1], "proc": pname}
            )
        pools["modref"].append({"op": "modref", "proc": pname})
        pools["callees"].append({"op": "callees", "proc": pname})
        pools["callers"].append({"op": "callers", "proc": pname})
        if pname != names[0]:
            pools["reaches"].append(
                {"op": "reaches", "src": names[0], "dst": pname}
            )
    for name in sorted(store["index"].get("pointed_by", {})):
        pools["pointed_by"].append({"op": "pointed_by", "name": name})
    return pools


def build_workload(
    store: dict,
    count: int,
    mix: Optional[dict[str, int]] = None,
    repeat_half: bool = True,
    seed: int = 0,
) -> list[dict]:
    """One client's deterministic request sequence (length ``count``).

    Ops are drawn with ``mix`` weights from the store-derived pools;
    with ``repeat_half`` the second half repeats the first (cache-hit
    realism).  Two calls with equal arguments build equal workloads.
    """
    mix = dict(mix) if mix else dict(DEFAULT_MIX)
    pools = _request_pools(store)
    ops = [op for op in sorted(mix) if pools.get(op)]
    if not ops:
        raise ValueError("store yields no requests for the requested mix")
    weights = [mix[op] for op in ops]
    rng = random.Random(seed)
    fresh = count - count // 2 if repeat_half else count
    out: list[dict] = []
    for _ in range(fresh):
        op = rng.choices(ops, weights=weights)[0]
        out.append(dict(rng.choice(pools[op])))
    if repeat_half:
        out.extend(dict(req) for req in out[: count - fresh])
    return out


def _request_key(req: dict) -> str:
    """Canonical identity of a request minus the client ``id`` (two
    clients asking the same question share one baseline entry)."""
    return json.dumps(
        {k: v for k, v in req.items() if k != "id"}, sort_keys=True
    )


def baseline_answers(
    stores: list[dict], workloads: list[list[dict]]
) -> dict[str, set]:
    """Fault-free reference answers for every workload request.

    Maps :func:`_request_key` to the *set* of acceptable serialized
    results — one per store, so passing both the pre- and post-reload
    stores encodes the hot-swap contract exactly: a non-shed answer must
    match the old store or the new store, never a torn mix.  Requests a
    store answers with an error contribute nothing (chaos clients only
    verify ``ok`` envelopes).
    """
    from ..query.engine import QueryEngine, QueryError

    expected: dict[str, set] = {}
    for store in stores:
        engine = QueryEngine(store, cache_size=0)
        seen: set[str] = set()
        for workload in workloads:
            for req in workload:
                key = _request_key(req)
                if key in seen:
                    continue
                seen.add(key)
                try:
                    result = engine.query(dict(req))
                except QueryError:
                    continue
                expected.setdefault(key, set()).add(
                    json.dumps(result, sort_keys=True)
                )
    return expected


class LoadReport:
    """Aggregated outcome of one load-test run."""

    def __init__(
        self,
        program: str,
        clients: int,
        histogram: LogHistogram,
        errors: int,
        seconds: float,
        ops: dict[str, int],
        cache_hits: int = 0,
        cache_misses: int = 0,
        chaos: Optional[dict] = None,
    ) -> None:
        self.program = program
        self.clients = clients
        self.histogram = histogram
        self.errors = errors
        self.seconds = seconds
        self.ops = ops
        #: the daemon's LRU hits and misses during this run
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        #: chaos-mode accounting block (None on ordinary runs)
        self.chaos = chaos

    @property
    def requests(self) -> int:
        return self.histogram.count

    @property
    def qps(self) -> float:
        return (self.requests / self.seconds) if self.seconds > 0 else 0.0

    def latency_ms(self) -> dict:
        """Quantile block in milliseconds (p50/p90/p95/p99 + max)."""
        out = {}
        for q in REPORT_QUANTILES:
            value = self.histogram.quantile(q)
            out[f"p{int(q * 100)}_ms"] = (
                None if value is None else round(value, 4)
            )
        hi = self.histogram.max
        out["max_ms"] = None if hi is None else round(hi, 4)
        return out

    def as_dict(self) -> dict:
        out = {
            "program": self.program,
            "clients": self.clients,
            "requests": self.requests,
            "errors": self.errors,
            "seconds": round(self.seconds, 6),
            "qps": round(self.qps, 2),
            "latency": self.latency_ms(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": safe_ratio(
                self.cache_hits, self.cache_hits + self.cache_misses
            ),
            "ops": dict(sorted(self.ops.items())),
        }
        if self.chaos is not None:
            out["chaos"] = self.chaos
        return out


class _ClientResult:
    __slots__ = ("histogram", "errors", "ops", "failure", "sheds", "garbage",
                 "client_disconnects", "server_drops", "answers_read",
                 "mismatches", "mismatch_samples")

    def __init__(self) -> None:
        self.histogram = LogHistogram()
        self.errors = 0
        self.ops: dict[str, int] = {}
        self.failure: Optional[BaseException] = None
        #: chaos accounting (all zero on ordinary runs)
        self.sheds = 0
        self.garbage = 0
        self.client_disconnects = 0
        self.server_drops = 0
        self.answers_read = 0
        self.mismatches = 0
        self.mismatch_samples: list[str] = []


def _connect(addr: tuple[str, int], timeout: float):
    sock = socket.create_connection(addr, timeout=timeout)
    return sock, sock.makefile("rw", encoding="utf-8")


def _run_client(
    addr: tuple[str, int],
    workload: list[dict],
    result: _ClientResult,
    start_barrier: threading.Barrier,
    timeout: float,
    chaos_rng: Optional[random.Random] = None,
    expected: Optional[dict] = None,
) -> None:
    """One client thread's replay loop.

    Ordinary mode treats an empty read as a failure (the daemon must
    never drop a well-behaved client).  Chaos mode (``chaos_rng`` set)
    misbehaves deterministically and keeps exact books instead: every
    line the daemon read is accounted as an answer read, a deliberate
    client disconnect, or a server drop — the invariant the chaos tests
    assert against the daemon's ``requests`` counter.
    """
    sock = fh = None
    try:
        sock, fh = _connect(addr, timeout)
        start_barrier.wait(timeout=timeout)
        for i, req in enumerate(workload):
            action = "normal"
            if chaos_rng is not None:
                draw = chaos_rng.random()
                if draw < CHAOS_GARBAGE_RATE:
                    action = "garbage"
                elif draw < CHAOS_GARBAGE_RATE + CHAOS_DISCONNECT_RATE:
                    action = "disconnect"
            if action == "garbage":
                # a non-JSON line; the daemon must answer one bad-json
                # envelope (or drop us via its own injected fault)
                result.garbage += 1
                try:
                    fh.write(f"@@chaos garbage {i}@@\n")
                    fh.flush()
                    line = fh.readline()
                except OSError:
                    line = ""
                if not line:
                    result.server_drops += 1
                    sock.close()
                    sock, fh = _connect(addr, timeout)
                else:
                    result.answers_read += 1
                continue
            if action == "disconnect":
                # send a real request, then vanish without reading the
                # answer; the daemon reads and finalizes the line (the
                # data is ordered before our FIN), so this counts
                # against its requests counter
                try:
                    fh.write(json.dumps(dict(req, id=i)) + "\n")
                    fh.flush()
                    result.client_disconnects += 1
                except OSError:
                    pass  # line never reached the daemon: no account
                sock.close()
                sock, fh = _connect(addr, timeout)
                continue
            payload = json.dumps(dict(req, id=i))
            t0 = time.perf_counter_ns()
            try:
                fh.write(payload + "\n")
                fh.flush()
                line = fh.readline()
            except OSError:
                if chaos_rng is None:
                    raise
                line = ""
            elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
            if not line:
                if chaos_rng is None:
                    raise OSError("daemon closed the connection mid-run")
                # the daemon's injected disconnect fault: the request
                # was processed and finalized, the answer never written
                result.server_drops += 1
                sock.close()
                sock, fh = _connect(addr, timeout)
                continue
            result.answers_read += 1
            envelope = json.loads(line)
            error = envelope.get("error") or {}
            if error.get("code") == "overloaded":
                # shed by overload protection: counted, never measured
                # (a shed is not a latency sample or an engine error)
                result.sheds += 1
                continue
            result.histogram.record(elapsed_ms)
            op = req["op"]
            result.ops[op] = result.ops.get(op, 0) + 1
            if not envelope.get("ok"):
                result.errors += 1
            elif expected is not None:
                allowed = expected.get(_request_key(req))
                got = json.dumps(envelope.get("result"), sort_keys=True)
                if allowed is not None and got not in allowed:
                    result.mismatches += 1
                    if len(result.mismatch_samples) < CHAOS_MISMATCH_SAMPLES:
                        result.mismatch_samples.append(
                            f"{_request_key(req)} -> {got[:200]}"
                        )
    except BaseException as exc:  # surfaced by run_clients
        result.failure = exc
        try:
            start_barrier.abort()
        except Exception:
            pass
    finally:
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


def run_clients(
    addr: tuple[str, int],
    workloads: list[list[dict]],
    program: str = "<store>",
    timeout: float = 60.0,
    daemon_stats=None,
    chaos_seed: Optional[int] = None,
    expected: Optional[dict] = None,
) -> LoadReport:
    """Replay ``workloads`` (one list per client thread) against the
    daemon at ``addr``; returns the merged :class:`LoadReport`.

    All clients connect first, then release together through a barrier
    so the measured wall clock covers concurrent load, not connection
    staggering.  ``daemon_stats``, when given, fetches the daemon's
    ``stats`` answer; it is called before and after the run, and the
    report's cache figures are the difference.

    ``chaos_seed`` switches every client into chaos mode (each gets its
    own deterministic ``random.Random(f"chaos:{seed}:{index}")``
    misbehavior stream); ``expected`` (see :func:`baseline_answers`)
    verifies each ``ok`` answer against the fault-free baseline.
    """
    before = daemon_stats() if daemon_stats is not None else {}
    results = [_ClientResult() for _ in workloads]
    barrier = threading.Barrier(len(workloads) + 1)
    threads = [
        threading.Thread(
            target=_run_client,
            args=(addr, workload, result, barrier, timeout),
            kwargs=dict(
                chaos_rng=(
                    random.Random(f"chaos:{chaos_seed}:{i}")
                    if chaos_seed is not None else None
                ),
                expected=expected,
            ),
            daemon=True,
        )
        for i, (workload, result) in enumerate(zip(workloads, results))
    ]
    for t in threads:
        t.start()
    barrier.wait(timeout=timeout)
    t0 = time.perf_counter()
    for t in threads:
        t.join(timeout)
    seconds = time.perf_counter() - t0
    for result in results:
        if result.failure is not None:
            raise OSError(f"load client failed: {result.failure}")
    histogram = LogHistogram.merged(r.histogram for r in results)
    ops: dict[str, int] = {}
    for r in results:
        for op, n in r.ops.items():
            ops[op] = ops.get(op, 0) + n
    after = daemon_stats() if daemon_stats is not None else {}
    chaos = None
    if chaos_seed is not None:
        samples: list[str] = []
        for r in results:
            samples.extend(r.mismatch_samples)
        chaos = {
            "seed": chaos_seed,
            "answers_read": sum(r.answers_read for r in results),
            "sheds": sum(r.sheds for r in results),
            "garbage": sum(r.garbage for r in results),
            "client_disconnects": sum(
                r.client_disconnects for r in results
            ),
            "server_drops": sum(r.server_drops for r in results),
            "mismatches": sum(r.mismatches for r in results),
            "mismatch_samples": samples[:CHAOS_MISMATCH_SAMPLES],
        }
    return LoadReport(
        program=program,
        clients=len(workloads),
        histogram=histogram,
        errors=sum(r.errors for r in results),
        seconds=seconds,
        ops=ops,
        cache_hits=_grown(before, after, "cache_hits"),
        cache_misses=_grown(before, after, "cache_misses"),
        chaos=chaos,
    )


def _grown(before: dict, after: dict, key: str) -> int:
    """How much the cumulative ``stats`` counter ``key`` grew."""
    return int(after.get(key) or 0) - int(before.get(key) or 0)


def _query_once(addr: tuple[str, int], request: dict, timeout: float) -> dict:
    with socket.create_connection(addr, timeout=timeout) as sock:
        fh = sock.makefile("rw", encoding="utf-8")
        fh.write(json.dumps(request) + "\n")
        fh.flush()
        return json.loads(fh.readline())


def run_loadtest(
    store_path: str,
    addr: tuple[str, int],
    clients: int = 8,
    requests_per_client: int = 50,
    mix: Optional[dict[str, int]] = None,
    repeat_half: bool = True,
    seed: int = 0,
    timeout: float = 60.0,
    chaos: bool = False,
    expect_stores: Optional[list[str]] = None,
) -> LoadReport:
    """The full harness: load the store, build per-client workloads,
    replay them concurrently against the daemon at ``addr``, and
    aggregate the report.

    Each client gets a differently-seeded shuffle of the mix
    (``seed + index``) so concurrent requests interleave ops rather than
    marching in lockstep.

    Chaos mode: clients misbehave deterministically and every ``ok``
    answer is verified against the fault-free baseline over the serving
    store plus any ``expect_stores`` (pass the post-reload store there
    when a hot swap happens mid-run).
    """
    from ..query import load_store

    store = load_store(store_path)
    workloads = [
        build_workload(
            store,
            requests_per_client,
            mix=mix,
            repeat_half=repeat_half,
            seed=seed + i,
        )
        for i in range(clients)
    ]
    expected = None
    if chaos:
        baseline_stores = [store]
        for extra in expect_stores or []:
            baseline_stores.append(load_store(extra))
        expected = baseline_answers(baseline_stores, workloads)
    return run_clients(
        addr,
        workloads,
        program=store.get("program", store_path),
        timeout=timeout,
        daemon_stats=lambda: _query_once(
            addr, {"op": "stats", "id": "loadgen"}, timeout
        ).get("result") or {},
        chaos_seed=seed if chaos else None,
        expected=expected,
    )
