"""The query daemon: envelopes, batching, both transports, concurrency.

The headline property (the PR's daemon acceptance check) is
``test_concurrent_clients_match_sequential_answers``: N threads issuing
interleaved batched queries over TCP receive byte-identical payloads to
sequential one-shot runs, and shutdown leaves no orphan socket and
returns 0.
"""

import io
import json
import socket
import threading
import time

import pytest

from repro import AnalyzerOptions, analyze_source
from repro.query import QueryEngine, build_store
from repro.query.server import QueryServer, _probe_tcp

SOURCE = """
int g;
int *gp;
void set(int **pp, int *v) { *pp = v; }
int use(int *p) { return *p; }
int main(void) {
    int x, y;
    int *p = &x;
    int *q = &y;
    set(&gp, &g);
    return use(p) + use(q);
}
"""

#: the scripted query mix the concurrency test replays (a superset of
#: what the CI serve smoke sends)
REQUESTS = [
    {"op": "points_to", "var": "p", "proc": "main"},
    {"op": "points_to", "var": "q", "proc": "main"},
    {"op": "points_to", "var": "gp", "proc": "main"},
    {"op": "alias", "a": "p", "b": "q", "proc": "main"},
    {"op": "alias", "a": "gp", "b": "p", "proc": "main"},
    {"op": "pointed_by", "name": "g"},
    {"op": "modref", "proc": "set"},
    {"op": "modref", "proc": "use"},
    {"op": "reaches", "src": "main", "dst": "use"},
    {"op": "callees", "proc": "main"},
    {"op": "callers", "proc": "set"},
]


@pytest.fixture(scope="module")
def store():
    result = analyze_source(SOURCE, options=AnalyzerOptions())
    return build_store(result, program_name="daemon")


def make_server(store, **kwargs):
    return QueryServer(QueryEngine(store), **kwargs)


# -- envelopes / stdio ------------------------------------------------------


def run_stdio(server, lines):
    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()
    code = server.serve_stdio(stdin, stdout)
    return code, [json.loads(l) for l in stdout.getvalue().splitlines()]


def test_single_request_envelope(store):
    code, out = run_stdio(
        make_server(store),
        [json.dumps({"op": "points_to", "var": "p", "proc": "main", "id": 7})],
    )
    assert code == 0
    [env] = out
    assert env["id"] == 7 and env["ok"] and env["status"] == 0
    assert env["result"]["targets"] == ["x"]


def test_batch_answers_in_request_order(store):
    batch = [dict(req, id=i) for i, req in enumerate(REQUESTS)]
    code, out = run_stdio(make_server(store), [json.dumps(batch)])
    assert code == 0
    assert [env["id"] for env in out] == list(range(len(REQUESTS)))
    assert all(env["ok"] for env in out)


def test_error_envelopes_carry_stable_codes(store):
    lines = [
        json.dumps({"op": "nope", "id": 1}),
        json.dumps({"op": "points_to", "var": "zz", "proc": "main", "id": 2}),
        json.dumps({"op": "modref", "proc": "zz", "id": 3}),
        "this is not json",
        json.dumps(["not-an-object"]),
    ]
    code, out = run_stdio(make_server(store), lines)
    assert code == 0
    codes = [(env["ok"], env["status"], (env.get("error") or {}).get("code"))
             for env in out]
    assert codes == [
        (False, 2, "bad-request"),
        (False, 2, "unknown-var"),
        (False, 2, "unknown-proc"),
        (False, 2, "bad-json"),
        (False, 2, "bad-request"),
    ]


def test_ping_and_shutdown(store):
    server = make_server(store)
    code, out = run_stdio(server, [
        json.dumps({"op": "ping", "id": 1}),
        json.dumps({"op": "shutdown", "id": 2}),
        json.dumps({"op": "ping", "id": 3}),  # after shutdown: never read
    ])
    assert code == 0
    assert [env["id"] for env in out] == [1, 2]
    assert out[0]["result"]["program"] == "daemon"
    assert server.shutting_down.is_set()


def test_expired_deadline_maps_to_error_envelope(store):
    server = make_server(store, deadline_seconds=-1.0)  # already expired
    code, out = run_stdio(
        server, [json.dumps({"op": "callees", "proc": "main", "id": 1})]
    )
    assert code == 0
    [env] = out
    assert not env["ok"] and env["status"] == 2
    assert env["error"]["code"] == "deadline"


def test_degraded_store_answers_with_status_4(store):
    poisoned = json.loads(json.dumps(store))
    poisoned["snapshot"]["degradation"]["ok"] = False
    code, out = run_stdio(
        make_server(poisoned),
        [json.dumps({"op": "callees", "proc": "main", "id": 1})],
    )
    [env] = out
    assert env["ok"] and env["status"] == 4


def test_blank_lines_are_ignored(store):
    code, out = run_stdio(make_server(store), ["", "   ", ""])
    assert code == 0 and out == []


# -- TCP transport ----------------------------------------------------------


def start_tcp(server):
    addr = {}
    ready = threading.Event()

    def cb(a):
        addr["a"] = a
        ready.set()

    thread = threading.Thread(
        target=server.serve_tcp,
        kwargs=dict(host="127.0.0.1", port=0, ready_cb=cb, log=io.StringIO()),
    )
    thread.start()
    assert ready.wait(10), "server never announced readiness"
    return thread, addr["a"]


def tcp_exchange(addr, lines):
    """Send each line, read one response line per request it contains."""
    out = []
    with socket.create_connection(addr, timeout=10) as sock:
        fh = sock.makefile("rw", encoding="utf-8")
        for line in lines:
            payload = json.loads(line)
            n = len(payload) if isinstance(payload, list) else 1
            fh.write(line + "\n")
            fh.flush()
            for _ in range(n):
                out.append(fh.readline().rstrip("\n"))
    return out


def shutdown_tcp(addr):
    with socket.create_connection(addr, timeout=10) as sock:
        fh = sock.makefile("rw", encoding="utf-8")
        fh.write(json.dumps({"op": "shutdown"}) + "\n")
        fh.flush()
        return json.loads(fh.readline())


def test_tcp_round_trip_and_clean_shutdown(store):
    server = make_server(store)
    thread, addr = start_tcp(server)
    try:
        [answer] = tcp_exchange(
            addr, [json.dumps({"op": "points_to", "var": "p",
                               "proc": "main", "id": 1})]
        )
        env = json.loads(answer)
        assert env["ok"] and env["result"]["targets"] == ["x"]
    finally:
        env = shutdown_tcp(addr)
        assert env["ok"]
        thread.join(10)
    assert not thread.is_alive()
    # no orphan socket: nothing accepts connections on the old port
    deadline = time.time() + 5
    while _probe_tcp(*addr) and time.time() < deadline:
        time.sleep(0.05)
    assert not _probe_tcp(*addr)


def test_concurrent_clients_match_sequential_answers(store):
    """Satellite acceptance: N threads, interleaved batches, answers
    byte-identical to sequential one-shot queries; clean shutdown."""
    # sequential baseline: a fresh engine per request (one-shot runs)
    baseline = {}
    for req in REQUESTS:
        engine = QueryEngine(store)
        key = json.dumps(req, sort_keys=True)
        baseline[key] = json.dumps(engine.query(dict(req)), sort_keys=True)

    server = make_server(store)
    thread, addr = start_tcp(server)
    failures = []

    def client(seed: int) -> None:
        try:
            # each client interleaves the ops differently and mixes
            # batched and single requests
            order = REQUESTS[seed:] + REQUESTS[:seed]
            half = len(order) // 2
            batch = json.dumps([dict(r, id=f"{seed}-{i}")
                                for i, r in enumerate(order[:half])])
            singles = [json.dumps(dict(r, id=f"{seed}-s{i}"))
                       for i, r in enumerate(order[half:])]
            raw = tcp_exchange(addr, [batch] + singles)
            for line in raw:
                env = json.loads(line)
                assert env["ok"], env
                req_id = env["id"]
                # map the answer back to its request by id
                idx = int(str(req_id).split("-")[-1].lstrip("s"))
                is_single = "s" in str(req_id)
                req = order[half + idx] if is_single else order[idx]
                key = json.dumps(req, sort_keys=True)
                got = json.dumps(env["result"], sort_keys=True)
                assert got == baseline[key], (req, got)
        except Exception as exc:  # pragma: no cover - diagnostic
            failures.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    try:
        assert not failures, failures[0]
        # the shared engine actually shared: repeats across clients hit
        stats = server.engine.query({"op": "stats"})
        assert stats["cache_hits"] > 0
    finally:
        shutdown_tcp(addr)
        thread.join(10)
    assert not thread.is_alive()
    assert not _probe_tcp(*addr)


# -- telemetry / access log / admin ops -------------------------------------


def test_stats_op_carries_server_block_and_telemetry(store):
    from repro.diagnostics.telemetry import TelemetryRegistry

    server = make_server(store, telemetry=TelemetryRegistry())
    lines = [json.dumps(dict(req, id=i)) for i, req in enumerate(REQUESTS)]
    lines.append(json.dumps({"op": "stats", "id": "admin"}))
    code, out = run_stdio(server, lines)
    assert code == 0
    stats = out[-1]["result"]
    # engine keys the CI smoke client depends on survive untouched
    assert stats["cache_misses"] >= 1 and "cache_hit_rate" in stats
    block = stats["server"]
    # every earlier request was finalized before stats was answered
    assert block["requests"] == len(REQUESTS)
    assert block["in_flight"] >= 1  # the stats line itself
    assert block["uptime_seconds"] >= 0
    assert block["access_log"] is False
    telem = block["telemetry"]
    assert telem["counters"]["requests"] == len(REQUESTS)
    assert telem["histograms"]["latency"]["count"] == len(REQUESTS)
    # the stats line itself is still in flight; every earlier line's
    # gauge increment was paired with a decrement at finalize
    assert telem["gauges"]["in_flight"] == 1
    # after the whole batch drains the gauge returns to zero
    assert server.telemetry.gauge("in_flight").value == 0


def test_metrics_op_emits_prometheus_text(store):
    """The `metrics` admin op: Prometheus text exposition straight from
    the live registry, server levels folded in as gauges."""
    from repro.diagnostics.telemetry import TelemetryRegistry

    server = make_server(store, telemetry=TelemetryRegistry())
    lines = [json.dumps(dict(req, id=i)) for i, req in enumerate(REQUESTS)]
    lines.append(json.dumps({"op": "metrics", "id": "scrape"}))
    code, out = run_stdio(server, lines)
    assert code == 0
    env = out[-1]
    assert env["ok"] and env["id"] == "scrape"
    result = env["result"]
    assert result["op"] == "metrics"
    assert result["content_type"] == "text/plain; version=0.0.4"
    text_lines = result["text"].splitlines()
    assert "# TYPE repro_requests_total counter" in text_lines
    assert f"repro_requests_total {len(REQUESTS)}" in text_lines
    assert "# TYPE repro_server_requests gauge" in text_lines
    assert f"repro_server_requests {len(REQUESTS)}" in text_lines
    assert "# TYPE repro_latency summary" in text_lines
    assert f"repro_latency_count {len(REQUESTS)}" in text_lines


def test_stats_prometheus_format_matches_metrics_op(store):
    from repro.diagnostics.telemetry import TelemetryRegistry

    server = make_server(store, telemetry=TelemetryRegistry())
    code, out = run_stdio(
        server,
        [json.dumps({"op": "stats", "format": "prometheus", "id": 1})],
    )
    assert code == 0
    [env] = out
    assert env["ok"]
    assert env["result"]["op"] == "metrics"
    assert "# TYPE" in env["result"]["text"]
    # plain stats is unchanged by the new format branch
    code, out = run_stdio(
        make_server(store), [json.dumps({"op": "stats", "id": 2})]
    )
    assert "server" in out[0]["result"]


def test_metrics_is_a_control_op():
    from repro.query.server import CONTROL_OPS

    assert "metrics" in CONTROL_OPS


def test_stats_counts_exactly_match_requests_sent(store):
    """Satellite acceptance: after a concurrent run, the daemon's own
    accounting — requests counter and histogram totals — exactly equals
    the number of requests the clients sent (no lost or double-counted
    finalizations)."""
    from repro.diagnostics.telemetry import TelemetryRegistry

    server = make_server(store, telemetry=TelemetryRegistry())
    thread, addr = start_tcp(server)
    clients = 6
    failures = []

    def client(seed):
        try:
            order = REQUESTS[seed:] + REQUESTS[:seed]
            lines = [json.dumps(dict(r, id=f"{seed}-{i}"))
                     for i, r in enumerate(order)]
            for line in tcp_exchange(addr, lines):
                assert json.loads(line)["ok"]
        except Exception as exc:  # pragma: no cover - diagnostic
            failures.append(exc)

    pool = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for t in pool:
        t.start()
    for t in pool:
        t.join(30)
    try:
        assert not failures, failures[0]
        sent = clients * len(REQUESTS)

        # a handler finalizes its counters *after* flushing the envelope
        # to the peer, so a client can see its last answer a beat before
        # the daemon's own accounting catches up; convergence (not the
        # instant of the last flush) is the invariant — wait for the
        # in-process finalize count, then assert exactness over the
        # wire
        deadline = time.monotonic() + 5.0
        while (
            server.telemetry.counter("requests").value < sent
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        with socket.create_connection(addr, timeout=10) as sock:
            fh = sock.makefile("rw", encoding="utf-8")
            fh.write(json.dumps({"op": "stats"}) + "\n")
            fh.flush()
            stats = json.loads(fh.readline())["result"]
        assert stats["server"]["requests"] == sent
        telem = stats["server"]["telemetry"]
        assert telem["counters"]["requests"] == sent
        assert telem["histograms"]["latency"]["count"] == sent
        # per-op histograms partition the total exactly
        per_op = sum(
            snap["count"]
            for name, snap in telem["histograms"].items()
            if name.startswith("latency.")
        )
        assert per_op == sent
        assert telem["counters"]["cache_hits"] + telem["counters"][
            "cache_misses"
        ] == sent
    finally:
        shutdown_tcp(addr)
        thread.join(10)


def test_health_op_answers_without_touching_cache(store):
    from repro.diagnostics.telemetry import TelemetryRegistry

    server = make_server(store, telemetry=TelemetryRegistry())
    code, out = run_stdio(server, [json.dumps({"op": "health", "id": 1})])
    assert code == 0
    [env] = out
    assert env["ok"]
    result = env["result"]
    assert result["healthy"] is True
    assert result["program"] == "daemon"
    assert result["degraded"] is False
    assert result["in_flight"] >= 1
    # health never probes the LRU
    assert server.engine.query({"op": "stats"})["cache_hits"] == 0


@pytest.mark.parametrize("access_log", [False, True])
def test_served_results_equal_engine_answers(store, access_log):
    """Every served ``result`` is byte for byte what
    ``QueryEngine.query`` answers for the same request, with or without
    an access log, on the first (miss) and the repeated (hit) pass: the
    telemetry the daemon always keeps never reaches an answer."""
    lines = [json.dumps(dict(req, id=i)) for i, req in enumerate(REQUESTS)]
    lines += lines  # repeats: the second half answers from the LRU
    server = make_server(
        store, access_log=io.StringIO() if access_log else None
    )
    code, out = run_stdio(server, lines)
    assert code == 0
    engine = QueryEngine(store, cache_size=0)
    expected = [
        json.dumps(engine.query(dict(req)), sort_keys=True)
        for req in REQUESTS
    ]
    served = [json.dumps(env["result"], sort_keys=True) for env in out]
    assert served == expected + expected
    assert [env["id"] for env in out] == list(range(len(REQUESTS))) * 2
    assert all(env["ok"] and env["status"] == 0 for env in out)


def test_access_log_schema(store):
    access = io.StringIO()
    server = make_server(store, access_log=access)
    run_stdio(server, [
        json.dumps({"op": "points_to", "var": "p", "proc": "main", "id": 1}),
        json.dumps({"op": "points_to", "var": "p", "proc": "main", "id": 2}),
        json.dumps({"op": "points_to", "var": "zz", "proc": "main", "id": 3}),
        "not json",
        json.dumps([{"op": "ping", "id": "a"}, {"op": "modref",
                                                "proc": "set", "id": "b"}]),
    ])
    records = [json.loads(l) for l in access.getvalue().splitlines()]
    assert len(records) == 6  # 3 singles + bad line + 2 batched
    for rec in records:
        assert set(rec) == {
            "t", "rid", "id", "op", "ok", "status", "code", "ms",
            "cache", "peer",
        }
        assert rec["ms"] >= 0 and rec["peer"] == "stdio"
    # rids are unique and increasing in finalization order
    rids = [rec["rid"] for rec in records]
    assert rids == sorted(rids) and len(set(rids)) == len(rids)
    assert records[0]["op"] == "points_to" and records[0]["cache"] == "miss"
    assert records[1]["cache"] == "hit"
    assert records[2]["ok"] is False and records[2]["code"] == "unknown-var"
    assert records[3]["op"] == "invalid" and records[3]["code"] == "bad-json"
    # batched requests share their line's latency (one wire unit)
    assert records[4]["ms"] == records[5]["ms"]


def test_slow_counter_and_trace_instants(store):
    from repro.diagnostics.telemetry import TelemetryRegistry
    from repro.diagnostics.trace import EVENT_VOCABULARY, Tracer

    tracer = Tracer()
    server = make_server(
        store, telemetry=TelemetryRegistry(), tracer=tracer, slow_ms=0.0
    )
    run_stdio(server, [
        json.dumps({"op": "points_to", "var": "p", "proc": "main", "id": 1}),
        json.dumps({"op": "ping", "id": 2}),
    ])
    snap = server.telemetry.as_dict()
    # with a 0ms threshold every finalized request counts as slow
    assert snap["counters"]["slow"] == 2
    names = {e["name"] for e in tracer.events}
    assert names == {"server.request", "server.slow"}
    assert names <= set(EVENT_VOCABULARY)
    requests = [e for e in tracer.events if e["name"] == "server.request"]
    assert [e["args"]["op"] for e in requests] == ["points_to", "ping"]


def test_deadline_counter(store):
    from repro.diagnostics.telemetry import TelemetryRegistry

    server = make_server(
        store, telemetry=TelemetryRegistry(), deadline_seconds=-1.0
    )
    run_stdio(server, [json.dumps({"op": "callees", "proc": "main",
                                   "id": 1})])
    snap = server.telemetry.as_dict()
    assert snap["counters"]["deadlines"] == 1
    assert snap["counters"]["errors"] == 1


def test_shutdown_report_written_on_request(store):
    from repro.diagnostics.telemetry import TelemetryRegistry

    access = io.StringIO()
    server = make_server(store, telemetry=TelemetryRegistry(),
                         access_log=access)
    stdin = io.StringIO(json.dumps({"op": "ping", "id": 1}) + "\n"
                        + json.dumps({"op": "shutdown", "id": 2}) + "\n")
    stdout, log = io.StringIO(), io.StringIO()
    assert server.serve_stdio(stdin, stdout, log=log) == 0
    text = log.getvalue()
    assert "repro: shutdown (request) after 2 request(s)" in text
    telemetry_lines = [l for l in text.splitlines()
                       if l.startswith("repro: telemetry ")]
    assert len(telemetry_lines) == 1
    snapshot = json.loads(telemetry_lines[0].split("repro: telemetry ", 1)[1])
    assert snapshot["counters"]["requests"] == 2


def test_sigterm_drains_and_exits_zero(store, tmp_path):
    """Satellite acceptance: a SIGTERM'd ``repro serve --tcp`` daemon
    stops accepting, flushes its access log, writes the final telemetry
    snapshot to stderr, and exits 0."""
    import os
    import signal
    import subprocess
    import sys as _sys

    store_path = tmp_path / "store.json"
    store_path.write_text(json.dumps(store))
    access_path = tmp_path / "access.jsonl"
    proc = subprocess.Popen(
        [_sys.executable, "-m", "repro.cli", "serve", str(store_path),
         "--tcp", "127.0.0.1:0", "--access-log", str(access_path)],
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
    )
    try:
        announce = proc.stderr.readline()
        assert "repro: serving daemon on " in announce, announce
        host, _, port = announce.strip().rpartition(" ")[2].rpartition(":")
        addr = (host, int(port))
        [answer] = tcp_exchange(
            addr, [json.dumps({"op": "points_to", "var": "p",
                               "proc": "main", "id": 1})]
        )
        assert json.loads(answer)["ok"]
        proc.send_signal(signal.SIGTERM)
        stderr = proc.stderr.read()
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait()
    assert "repro: shutdown (SIGTERM) after 1 request(s)" in stderr
    assert "repro: telemetry " in stderr
    records = [json.loads(l)
               for l in access_path.read_text().splitlines()]
    assert [r["op"] for r in records] == ["points_to"]
    assert not _probe_tcp(*addr)


# -- the selector loop ------------------------------------------------------


def test_tcp_connections_start_no_threads(store):
    """One selector loop serves every connection: opening and being
    answered on 8 connections adds no thread to the process."""
    server = make_server(store)
    thread, addr = start_tcp(server)
    socks = []
    try:
        before = threading.active_count()
        for i in range(8):
            sock = socket.create_connection(addr, timeout=10)
            socks.append(sock)
            fh = sock.makefile("rw", encoding="utf-8")
            fh.write(json.dumps({"op": "ping", "id": i}) + "\n")
            fh.flush()
            assert json.loads(fh.readline())["id"] == i
        assert threading.active_count() == before
    finally:
        for sock in socks:
            sock.close()
        shutdown_tcp(addr)
        thread.join(10)
    assert not thread.is_alive()
