"""Chaos mode of the load generator (docs/ROBUSTNESS.md §8).

The chaos gate's two properties, pinned against a daemon on a
background thread (the ``daemon`` fixture): under misbehaving
clients and injected serve faults the daemon (1) never crashes and its
counters exactly account for every line it read, and (2) every non-shed
``ok`` answer is byte-identical to a fault-free baseline — across a
mid-run hot swap, the baseline is the *union* of the old and new
stores' answers (old-or-new, never a torn mix).
"""

import json
import threading
import time

import pytest

from repro import AnalyzerOptions, analyze_source
from repro.bench.loadgen import (
    baseline_answers,
    build_workload,
    run_clients,
    run_loadtest,
)
from repro.diagnostics.faults import FaultPlan
from repro.memory.pointsto import reset_interning
from repro.query import build_store, write_store

SOURCE_V1 = """
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

#: ``main`` edited so a points-to answer changes: p -> y, not x
SOURCE_V3 = SOURCE_V1.replace("int *p = &x;", "int *p = &y;")


def build(source: str) -> dict:
    reset_interning()
    result = analyze_source(source, options=AnalyzerOptions())
    return build_store(result, program_name="chaos")


@pytest.fixture(scope="module")
def store_v1():
    return build(SOURCE_V1)


@pytest.fixture(scope="module")
def store_v3():
    return build(SOURCE_V3)


@pytest.fixture()
def store_file(tmp_path, store_v1):
    path = tmp_path / "chaos.store.json"
    write_store(store_v1, str(path))
    return str(path)


def query_once(addr, request):
    import socket

    with socket.create_connection(addr, timeout=10) as sock:
        fh = sock.makefile("rw", encoding="utf-8")
        fh.write(json.dumps(request) + "\n")
        fh.flush()
        return json.loads(fh.readline())


def _wait_for(predicate, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_accounting_invariant_under_chaos_and_disconnect_faults(
    store_v1, daemon
):
    """Every line the daemon read is finalized exactly once, whether the
    answer was read, deliberately abandoned by the client, or dropped by
    the daemon's own injected disconnect fault."""
    server, addr = daemon(
        store_v1, faults=FaultPlan(seed=3, disconnect_rate=0.05)
    )
    requests = server.telemetry.counter("requests")
    workloads = [build_workload(store_v1, 40, seed=i) for i in range(6)]
    report = run_clients(addr, workloads, chaos_seed=11)
    chaos = report.chaos
    sent = (
        chaos["answers_read"]
        + chaos["client_disconnects"]
        + chaos["server_drops"]
    )
    assert sent > 0
    # chaos actually happened: both misbehavior kinds fired
    assert chaos["garbage"] > 0
    assert chaos["client_disconnects"] > 0
    assert chaos["server_drops"] > 0  # the injected fault fired
    assert _wait_for(lambda: requests.value == sent)
    assert requests.value == sent
    assert server.telemetry.counter("fault_disconnects").value == (
        chaos["server_drops"]
    )
    # the daemon survived it all
    assert query_once(addr, {"op": "ping"})["ok"]


def test_chaos_runs_are_deterministic(store_v1, store_file, daemon):
    """Same seed, same store, no timing-dependent shedding: the chaos
    accounting block is identical across runs."""
    _, addr = daemon(store_v1)

    def run():
        return run_loadtest(
            store_file, addr, clients=4, requests_per_client=30, seed=5,
            chaos=True,
        )

    a, b = run(), run()
    assert a.chaos == b.chaos
    assert a.chaos["garbage"] > 0 or a.chaos["client_disconnects"] > 0


def test_chaos_on_a_clean_store_matches_baseline(store_v1, store_file,
                                                 daemon):
    _, addr = daemon(store_v1)
    report = run_loadtest(
        store_file, addr, clients=4, requests_per_client=40, seed=1,
        chaos=True,
    )
    assert report.chaos["mismatches"] == 0
    assert report.chaos["mismatch_samples"] == []
    assert report.chaos["answers_read"] > 0
    assert report.errors == 0
    out = report.as_dict()
    assert out["chaos"]["seed"] == 1


def test_chaos_with_rate_limit_counts_sheds_not_errors(store_v1, store_file,
                                                      daemon):
    _, addr = daemon(store_v1, rate_limit=50.0, burst=10.0)
    report = run_loadtest(
        store_file, addr, clients=4, requests_per_client=30, seed=2,
        chaos=True,
    )
    assert report.chaos["sheds"] > 0
    # sheds are not engine errors, and shed answers skip verification
    assert report.errors == 0
    assert report.chaos["mismatches"] == 0
    # sheds and garbage answers never enter the latency histogram
    # (garbage bypasses admission — it fails JSON parse before the
    # gates — so every garbage line here got its bad-json answer)
    assert report.requests == (
        report.chaos["answers_read"]
        - report.chaos["sheds"]
        - report.chaos["garbage"]
    )


def test_midrun_hot_swap_answers_old_or_new_never_torn(
    tmp_path, store_v1, store_v3, daemon
):
    path = str(tmp_path / "hot.store.json")
    write_store(store_v1, path)
    server, addr = daemon(store_v1, store_path=path)
    workloads = [build_workload(store_v1, 60, seed=i) for i in range(4)]
    expected = baseline_answers([store_v1, store_v3], workloads)

    swap_result = {}

    def swap():
        time.sleep(0.02)
        write_store(store_v3, path)
        swap_result["env"] = query_once(addr, {"op": "reload"})

    swapper = threading.Thread(target=swap)
    swapper.start()
    report = run_clients(addr, workloads, chaos_seed=7, expected=expected)
    swapper.join(10)
    assert swap_result["env"]["ok"]
    assert server.generation == 2
    # every non-shed ok answer matched the old store or the new store —
    # the never-torn contract, end to end
    assert report.chaos["mismatches"] == 0
    assert report.chaos["mismatch_samples"] == []
    assert report.errors == 0
