"""Fault tolerance of the serve daemon (docs/ROBUSTNESS.md §8).

Four pillars, each pinned here: hot store swap (the ``reload`` admin op
promotes a new store atomically under traffic — in-flight lines answer
entirely from the old store, never a torn mix), overload protection
(in-flight gate + token bucket shed with the stable ``overloaded`` code
while control ops stay exempt), store integrity on the reload path (a
corrupted target is refused while the old store keeps serving), and the
injected serve faults (slow handlers, mid-request disconnects) that the
chaos gate builds on.
"""

import io
import json
import socket
import threading
import time

import pytest

from repro import AnalyzerOptions, analyze_source
from repro.analysis.demand import fresh_analysis_state
from repro.diagnostics.faults import FaultPlan
from repro.diagnostics.telemetry import TelemetryRegistry
from repro.query import (
    QueryEngine,
    build_store,
    compute_stale_between_stores,
    load_store,
    seal_store,
    write_store,
)
from repro.query.server import QueryServer

from .staleness_oracle import assert_clean_means_identical

SOURCE_V1 = """
int g;
int *gp;
void set(int **pp, int *v) { *pp = v; }
int use(int *p) { return *p; }
int iso(void) { int z; int *r = &z; return *r; }
int orphan(void) { int w; int *s = &w; return *s; }
int main(void) {
    int x, y;
    int *p = &x;
    int *q = &y;
    set(&gp, &g);
    return use(p) + use(q) + iso();
}
"""

#: ``use`` edited — ``main`` (its caller) goes stale with it, and so do
#: ``set`` and ``iso`` (main's callees: their contexts come from main);
#: only ``orphan``, which nobody calls, stays clean.  Every points-to
#: answer is unchanged
SOURCE_V2 = SOURCE_V1.replace(
    "int use(int *p) { return *p; }",
    "int use(int *p) { return *p + 1; }",
)

#: ``main`` edited so an *answer* changes: p points to y, not x
SOURCE_V3 = SOURCE_V1.replace("int *p = &x;", "int *p = &y;")


def count(server: QueryServer, name: str) -> int:
    """One of the daemon's registry counters."""
    return server.telemetry.counter(name).value


def build(source: str) -> dict:
    fresh_analysis_state()
    result = analyze_source(source, options=AnalyzerOptions())
    return build_store(result, program_name="faulty")


@pytest.fixture(scope="module")
def store_v1():
    return build(SOURCE_V1)


@pytest.fixture(scope="module")
def store_v2():
    return build(SOURCE_V2)


@pytest.fixture(scope="module")
def store_v3():
    return build(SOURCE_V3)


def make_server(store, **kwargs):
    return QueryServer(QueryEngine(store), **kwargs)


def run_stdio(server, lines):
    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()
    code = server.serve_stdio(stdin, stdout)
    return code, [json.loads(l) for l in stdout.getvalue().splitlines()]


def ask(server, request) -> dict:
    [text] = server.handle_line(json.dumps(request))
    return json.loads(text)


P_MAIN = {"op": "points_to", "var": "p", "proc": "main"}
R_ISO = {"op": "points_to", "var": "r", "proc": "iso"}
R_ORPHAN = {"op": "points_to", "var": "s", "proc": "orphan"}


def assert_reload_report_sound(old_store, new_store):
    """The reload's staleness report, checked against the new store
    (a fresh index of the new sources)."""
    report = compute_stale_between_stores(old_store, new_store)
    assert_clean_means_identical(report, old_store, new_store)
    return report


# -- hot store swap ---------------------------------------------------------


def test_reload_promotes_new_store(tmp_path, store_v1, store_v3):
    path = str(tmp_path / "hot.store.json")
    write_store(store_v1, path)
    server = make_server(store_v1, store_path=path)
    assert ask(server, P_MAIN)["result"]["targets"] == ["x"]
    write_store(store_v3, path)
    env = ask(server, {"op": "reload", "id": 9})
    assert env["ok"] and env["id"] == 9
    result = env["result"]
    assert result["generation"] == 2
    assert result["store"] == path
    assert server.generation == 2 and count(server, "reloads") == 1
    # the promoted store answers
    assert ask(server, P_MAIN)["result"]["targets"] == ["y"]
    assert_reload_report_sound(store_v1, store_v3)


def test_reload_stale_report_in_result(tmp_path, store_v1, store_v2):
    path = str(tmp_path / "hot.store.json")
    write_store(store_v1, path)
    server = make_server(store_v1, store_path=path)
    write_store(store_v2, path)
    result = ask(server, {"op": "reload"})["result"]
    assert result["stale"]["changed"] == 1  # use
    assert result["stale"]["globals_changed"] is False
    # use, its caller main, and main's callees set and iso
    assert result["stale"]["stale"] == 4
    assert result["stale"]["clean"] == 1  # orphan: nobody calls it
    report = assert_reload_report_sound(store_v1, store_v2)
    assert report.clean == ["orphan"]


def test_requests_in_one_line_pin_one_store(tmp_path, store_v1, store_v3):
    """The never-torn guarantee, single-threaded and deterministic: a
    batch line that *contains* the reload still answers every request in
    that line from the store pinned when the line arrived."""
    path = str(tmp_path / "hot.store.json")
    write_store(store_v1, path)
    server = make_server(store_v1, store_path=path)
    write_store(store_v3, path)
    batch = [dict(P_MAIN, id=1), {"op": "reload", "id": 2},
             dict(P_MAIN, id=3)]
    answers = [json.loads(t) for t in server.handle_line(json.dumps(batch))]
    # the swap happened mid-line...
    assert answers[1]["ok"] and server.generation == 2
    # ...but both queries in the line saw the old store
    assert answers[0]["result"]["targets"] == ["x"]
    assert answers[2]["result"]["targets"] == ["x"]
    # the next line sees the new store
    assert ask(server, P_MAIN)["result"]["targets"] == ["y"]


def test_reload_carries_clean_cache_slice(tmp_path, store_v1, store_v2):
    path = str(tmp_path / "hot.store.json")
    write_store(store_v1, path)
    server = make_server(store_v1, store_path=path)
    orphan_before = ask(server, R_ORPHAN)["result"]
    ask(server, P_MAIN)  # proc main: stale in v2 (caller of use)
    ask(server, R_ISO)  # proc iso: stale in v2 (callee of main)
    write_store(store_v2, path)
    result = ask(server, {"op": "reload"})["result"]
    assert result["cache"] == {"carried": 1, "dropped": 2}
    assert_reload_report_sound(store_v1, store_v2)
    # the carried entry answers as a cache hit on the new engine (the
    # metrics are shared across the swap, so the counters are cumulative)
    hits_before = server.engine.counters.cache_hits
    env = ask(server, R_ORPHAN)
    assert env["result"] == orphan_before
    assert server.engine.counters.cache_hits == hits_before + 1


def test_reload_without_store_path_is_refused(store_v1):
    server = make_server(store_v1)
    env = ask(server, {"op": "reload"})
    assert not env["ok"] and env["error"]["code"] == "reload-failed"
    assert "in-memory" in env["error"]["message"]


def test_reload_accepts_explicit_path(tmp_path, store_v1, store_v3):
    other = str(tmp_path / "other.store.json")
    write_store(store_v3, other)
    server = make_server(store_v1)  # no store_path at all
    env = ask(server, {"op": "reload", "path": other})
    assert env["ok"] and env["result"]["generation"] == 2
    assert ask(server, P_MAIN)["result"]["targets"] == ["y"]
    assert_reload_report_sound(store_v1, store_v3)


# -- integrity on the reload path -------------------------------------------


def test_reload_rejects_truncated_target_and_keeps_serving(
    tmp_path, store_v1
):
    path = str(tmp_path / "hot.store.json")
    write_store(store_v1, path)
    server = make_server(store_v1, store_path=path)
    payload = json.dumps(store_v1)
    (tmp_path / "hot.store.json").write_text(payload[: len(payload) // 2])
    env = ask(server, {"op": "reload"})
    assert not env["ok"] and env["error"]["code"] == "reload-failed"
    assert "still serving generation 1" in env["error"]["message"]
    assert server.generation == 1 and count(server, "reload_failures") == 1
    # the old store keeps answering
    assert ask(server, P_MAIN)["result"]["targets"] == ["x"]


def test_reload_rejects_tampered_target(tmp_path, store_v1, store_v3):
    path = str(tmp_path / "hot.store.json")
    write_store(store_v1, path)
    server = make_server(store_v1, store_path=path)
    doc = json.loads(json.dumps(store_v3))
    doc["program"] = "evil"  # flips bytes without resealing
    (tmp_path / "hot.store.json").write_text(json.dumps(doc))
    env = ask(server, {"op": "reload"})
    assert not env["ok"] and env["error"]["code"] == "reload-failed"
    assert "integrity check failed" in env["error"]["message"]
    assert server.generation == 1
    assert ask(server, P_MAIN)["result"]["targets"] == ["x"]


def test_reload_rejects_unsealed_target(tmp_path, store_v1, store_v3):
    path = str(tmp_path / "hot.store.json")
    write_store(store_v1, path)
    server = make_server(store_v1, store_path=path)
    doc = json.loads(json.dumps(store_v3))
    del doc["integrity"]  # an unsealed store is not trusted either
    (tmp_path / "hot.store.json").write_text(json.dumps(doc))
    env = ask(server, {"op": "reload"})
    assert not env["ok"] and env["error"]["code"] == "reload-failed"
    assert "no integrity record" in env["error"]["message"]
    assert "still serving generation 1" in env["error"]["message"]
    assert server.generation == 1 and count(server, "reload_failures") == 1
    assert ask(server, P_MAIN)["result"]["targets"] == ["x"]


@pytest.mark.parametrize("record", ["globals", "address_taken", "indirect_callers"])
def test_reload_rejects_target_missing_an_ir_record(
    tmp_path, store_v1, store_v3, record
):
    """A sealed target without one of the records the staleness rule
    reads is refused; the old generation keeps serving."""
    path = str(tmp_path / "hot.store.json")
    write_store(store_v1, path)
    server = make_server(store_v1, store_path=path)
    doc = json.loads(json.dumps(store_v3))
    del doc["ir"][record]
    write_store(seal_store(doc), path)
    env = ask(server, {"op": "reload"})
    assert not env["ok"] and env["error"]["code"] == "reload-failed"
    assert f"lacks {record}" in env["error"]["message"]
    assert "still serving generation 1" in env["error"]["message"]
    assert server.generation == 1 and count(server, "reload_failures") == 1
    assert ask(server, P_MAIN)["result"]["targets"] == ["x"]


def test_injected_corrupt_reload_fault(tmp_path, store_v1, store_v3):
    path = str(tmp_path / "hot.store.json")
    write_store(store_v1, path)
    server = make_server(
        store_v1, store_path=path,
        faults=FaultPlan(corrupt_reload_rate=1.0),
    )
    write_store(store_v3, path)  # a perfectly good target
    env = ask(server, {"op": "reload"})
    assert not env["ok"] and env["error"]["code"] == "reload-failed"
    assert "injected corrupt_reload fault" in env["error"]["message"]
    assert server.generation == 1 and count(server, "reload_failures") == 1
    assert ask(server, P_MAIN)["result"]["targets"] == ["x"]


# -- the --watch poller -----------------------------------------------------


def test_watch_hot_swaps_on_store_change(tmp_path, store_v1, store_v3):
    path = str(tmp_path / "hot.store.json")
    write_store(store_v1, path)
    server = make_server(store_v1, store_path=path)
    log = io.StringIO()
    server.start_watch(0.05, log=log)
    try:
        time.sleep(0.12)  # poller records the initial signature
        write_store(store_v3, path)
        deadline = time.time() + 10
        while server.generation < 2 and time.time() < deadline:
            time.sleep(0.02)
        assert server.generation == 2
        assert ask(server, P_MAIN)["result"]["targets"] == ["y"]
        assert "repro: reload: generation 2" in log.getvalue()
    finally:
        server.shutting_down.set()
        server._watch_thread.join(5)
    assert not server._watch_thread.is_alive()


def test_watch_requires_store_path(store_v1):
    with pytest.raises(ValueError):
        make_server(store_v1).start_watch(0.05)


# -- overload protection ----------------------------------------------------


def test_in_flight_gate_sheds_with_stable_code(store_v1):
    server = make_server(store_v1, max_in_flight=0,
                         telemetry=TelemetryRegistry())
    code, out = run_stdio(server, [
        json.dumps(dict(P_MAIN, id=1)),
        json.dumps({"op": "ping", "id": 2}),
        json.dumps({"op": "stats", "id": 3}),
    ])
    assert code == 0
    shed, ping, stats = out
    assert not shed["ok"] and shed["status"] == 2
    assert shed["error"]["code"] == "overloaded"
    assert shed["error"]["retry_after_ms"] > 0
    # control ops pass the gate: an overloaded daemon stays probeable
    assert ping["ok"] and stats["ok"]
    block = stats["result"]["server"]
    assert block["sheds"] == 1
    assert block["telemetry"]["counters"]["sheds"] == 1
    assert block["telemetry"]["counters"]["sheds.in_flight"] == 1


def test_in_flight_gate_sheds_the_excess_of_a_pipelined_burst(store_v1):
    """On TCP a line is in flight from when the loop reads it until it
    is answered: a burst of more than N pipelined lines sheds the
    excess, and every admitted answer is byte-identical to an
    unlimited server's."""
    n, burst = 3, 8
    lines = [json.dumps(dict(P_MAIN, id=i)) for i in range(burst)]
    unlimited = make_server(store_v1)
    expected = [unlimited.handle_line(line)[0] for line in lines]
    server = make_server(store_v1, max_in_flight=n)
    thread, addr = start_tcp(server)
    try:
        with socket.create_connection(addr, timeout=10) as sock:
            # one send: the daemon reads the whole burst in one round
            sock.sendall("".join(line + "\n" for line in lines).encode())
            fh = sock.makefile("r", encoding="utf-8")
            answers = [fh.readline().rstrip("\n") for _ in lines]
    finally:
        shutdown_tcp(addr)
        thread.join(10)
    assert not thread.is_alive()
    assert answers[:n] == expected[:n]
    for text in answers[n:]:
        env = json.loads(text)
        assert env["error"]["code"] == "overloaded"
        assert env["error"]["retry_after_ms"] > 0
    assert count(server, "sheds") == burst - n


def test_token_bucket_sheds_after_burst(store_v1):
    server = make_server(store_v1, rate_limit=0.001, burst=2.0,
                         telemetry=TelemetryRegistry())
    code, out = run_stdio(server, [
        json.dumps(dict(P_MAIN, id=i)) for i in range(4)
    ] + [json.dumps({"op": "ping", "id": "probe"})])
    assert code == 0
    assert [env["ok"] for env in out] == [True, True, False, False, True]
    for env in out[2:4]:
        assert env["error"]["code"] == "overloaded"
        assert env["error"]["retry_after_ms"] > 0
    assert count(server, "sheds") == 2


def test_batch_line_pays_its_whole_weight(store_v1):
    server = make_server(store_v1, rate_limit=0.001, burst=2.0)
    batch = [dict(P_MAIN, id=i) for i in range(3)]
    answers = [json.loads(t) for t in server.handle_line(json.dumps(batch))]
    # 3 requests > 2 tokens: the whole line sheds, one envelope each
    assert [env["error"]["code"] for env in answers] == ["overloaded"] * 3
    # the bucket was not drained by the refused batch
    single = ask(server, dict(P_MAIN, id=9))
    assert single["ok"]


def test_non_shed_answers_identical_to_unlimited_server(store_v1):
    """Shedding happens before the engine: whatever gets through is
    byte-identical to an unlimited server's answer."""
    unlimited = make_server(store_v1)
    limited = make_server(store_v1, rate_limit=0.001, burst=1.0)
    line = json.dumps(dict(P_MAIN, id=1))
    assert limited.handle_line(line) == unlimited.handle_line(line)


# -- injected serve faults --------------------------------------------------


def test_slow_fault_stalls_the_line(store_v1):
    server = make_server(
        store_v1, faults=FaultPlan(slow_rate=1.0, slow_ms=40.0)
    )
    t0 = time.perf_counter()
    env = ask(server, dict(P_MAIN, id=1))
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    assert env["ok"] and env["result"]["targets"] == ["x"]
    assert elapsed_ms >= 40.0
    assert count(server, "fault_slow") == 1


def test_fault_verdicts_are_per_line_deterministic(store_v1):
    plan = FaultPlan(seed=7, slow_rate=0.5)
    line_a = json.dumps(dict(P_MAIN, id=1))
    line_b = json.dumps(dict(P_MAIN, id=2))
    assert plan.slow_serve(line_a) == plan.slow_serve(line_a)
    verdicts = {plan.slow_serve(line_a), plan.slow_serve(line_b)}
    # same plan, same line -> same verdict (set may hold either/both)
    assert verdicts <= {True, False}


# -- TCP: idle timeout, injected disconnects, garbage -----------------------


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


def shutdown_tcp(addr):
    with socket.create_connection(addr, timeout=10) as sock:
        fh = sock.makefile("rw", encoding="utf-8")
        fh.write(json.dumps({"op": "shutdown"}) + "\n")
        fh.flush()
        return json.loads(fh.readline())


def _wait_for(predicate, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_idle_timeout_releases_connection(store_v1):
    server = make_server(store_v1, idle_timeout=0.3)
    thread, addr = start_tcp(server)
    try:
        with socket.create_connection(addr, timeout=10) as sock:
            fh = sock.makefile("rw", encoding="utf-8")
            fh.write(json.dumps({"op": "ping", "id": 1}) + "\n")
            fh.flush()
            assert json.loads(fh.readline())["ok"]
            # now sit silent: the daemon must hang up, not hang on
            assert fh.readline() == ""
        assert _wait_for(lambda: count(server, "idle_timeouts") == 1)
    finally:
        shutdown_tcp(addr)
        thread.join(10)
    assert not thread.is_alive()


def _settled(read, quiet=0.5, timeout=10.0):
    """``read()`` once it has not changed for ``quiet`` seconds."""
    value, since = read(), time.monotonic()
    deadline = since + timeout
    while time.monotonic() < deadline:
        time.sleep(0.05)
        now_value = read()
        if now_value != value:
            value, since = now_value, time.monotonic()
        elif time.monotonic() - since >= quiet:
            break
    return value


def test_unread_pipeline_stalls_nobody(store_v1, monkeypatch):
    """Backpressure and fairness: a client that pipelines 500 requests
    and reads nothing neither stalls another client's ping nor makes
    the daemon buffer its answers without bound; once it reads, it gets
    all 500 answers in order."""
    import repro.query.server as server_mod

    monkeypatch.setattr(server_mod, "MAX_UNSENT_BYTES", 64 * 1024)
    server = make_server(store_v1)
    thread, addr = start_tcp(server)
    # a long id makes every answer ~16 KB, so 500 unread answers (~8 MB)
    # overflow the kernel's socket buffers and the daemon must stop
    # reading from this connection instead of blocking its loop
    pad = "x" * 16384
    payload = "".join(
        json.dumps(dict(P_MAIN, id=f"{pad}{i}")) + "\n"
        for i in range(500)
    ).encode("utf-8")
    slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    slow.settimeout(30)
    slow.connect(addr)
    sender = threading.Thread(target=slow.sendall, args=(payload,))
    try:
        sender.start()
        assert _wait_for(lambda: count(server, "requests") > 0)
        t0 = time.monotonic()
        with socket.create_connection(addr, timeout=10) as sock:
            fh = sock.makefile("rw", encoding="utf-8")
            fh.write(json.dumps({"op": "ping", "id": "other"}) + "\n")
            fh.flush()
            assert json.loads(fh.readline())["id"] == "other"
        assert time.monotonic() - t0 < 5.0
        # the unread answers stopped the daemon reading from `slow`: the
        # count of answered lines settles short of 500
        assert _settled(lambda: count(server, "requests")) < 500
        fh = slow.makefile("r", encoding="utf-8")
        ids = [json.loads(fh.readline())["id"] for _ in range(500)]
        assert ids == [f"{pad}{i}" for i in range(500)]
        sender.join(10)
        assert not sender.is_alive()
    finally:
        slow.close()
        shutdown_tcp(addr)
        thread.join(10)
    assert not thread.is_alive()


def test_injected_disconnect_drops_answer_but_finalizes(store_v1):
    line = json.dumps(dict(P_MAIN, id=1))
    server = make_server(
        store_v1, faults=FaultPlan(disconnect_names=frozenset({line}))
    )
    thread, addr = start_tcp(server)
    try:
        with socket.create_connection(addr, timeout=10) as sock:
            fh = sock.makefile("rw", encoding="utf-8")
            fh.write(line + "\n")
            fh.flush()
            assert fh.readline() == ""  # dropped mid-request
        # the request was processed and finalized regardless — the
        # accounting invariant the chaos gate asserts on
        assert _wait_for(lambda: count(server, "requests") == 1)
        assert count(server, "fault_disconnects") == 1
        # the daemon is fine; a fresh connection is answered (the fault
        # is keyed by the exact line text, and this one differs)
        with socket.create_connection(addr, timeout=10) as sock:
            fh = sock.makefile("rw", encoding="utf-8")
            fh.write(json.dumps(dict(P_MAIN, id=2)) + "\n")
            fh.flush()
            assert json.loads(fh.readline())["result"]["targets"] == ["x"]
    finally:
        shutdown_tcp(addr)
        thread.join(10)
    assert not thread.is_alive()


def test_client_vanishing_mid_request_never_crashes(store_v1):
    server = make_server(store_v1, telemetry=TelemetryRegistry())
    thread, addr = start_tcp(server)
    try:
        for i in range(5):
            sock = socket.create_connection(addr, timeout=10)
            fh = sock.makefile("rw", encoding="utf-8")
            fh.write(json.dumps(dict(P_MAIN, id=i)) + "\n")
            fh.flush()
            sock.close()  # gone before the answer
        sock = socket.create_connection(addr, timeout=10)
        fh = sock.makefile("rw", encoding="utf-8")
        fh.write("@@garbage@@\n")
        fh.flush()
        sock.close()
        # every sent line is eventually read and finalized (5 queries
        # + 1 garbage line), and the daemon still answers
        assert _wait_for(lambda: count(server, "requests") == 6)
        with socket.create_connection(addr, timeout=10) as sock:
            fh = sock.makefile("rw", encoding="utf-8")
            fh.write(json.dumps({"op": "health", "id": "z"}) + "\n")
            fh.flush()
            env = json.loads(fh.readline())
            assert env["ok"] and env["result"]["healthy"]
    finally:
        shutdown_tcp(addr)
        thread.join(10)
    assert not thread.is_alive()


# -- generation in admin answers --------------------------------------------


def test_stats_and_health_carry_generation(tmp_path, store_v1, store_v3):
    path = str(tmp_path / "hot.store.json")
    write_store(store_v1, path)
    server = make_server(store_v1, store_path=path)
    assert ask(server, {"op": "health"})["result"]["generation"] == 1
    write_store(store_v3, path)
    ask(server, {"op": "reload"})
    stats = ask(server, {"op": "stats"})["result"]["server"]
    assert stats["generation"] == 2
    assert stats["reloads"] == 1 and stats["reload_failures"] == 0
    assert ask(server, {"op": "health"})["result"]["generation"] == 2
