"""The daemon under chaos load (docs/ROBUSTNESS.md §8).

Load clients (``tests/query/load_clients.py``) drive a daemon on a
background thread (the ``daemon`` fixture).  Under misbehaving clients
and injected serve faults the daemon (1) never crashes and its counters
exactly account for every line it read, and (2) every non-shed ``ok``
answer is byte-identical to a fault-free baseline.  Across hot swaps
under live traffic the baseline is both stores' answers, and every
batch line must be answered from one of them (old or new, never a torn
mix).
"""

import json
import time

import pytest

from repro import AnalyzerOptions, analyze_source
from repro.bench.loadgen import build_workload
from repro.diagnostics.faults import FaultPlan
from repro.memory.pointsto import reset_interning
from repro.query import build_store, write_store
from tests.query.load_clients import (
    baseline_answers,
    request_key,
    run_clients,
)

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


def workloads(store, clients, count, seed=0):
    return [build_workload(store, count, seed=seed + i)
            for i in range(clients)]


def test_clean_run_answers_every_request(store_v1, daemon):
    """Well-behaved clients: every request is answered ok, and the
    repeated half of each workload hits the shared LRU."""
    server, addr = daemon(store_v1)
    books = run_clients(addr, workloads(store_v1, 4, 20))
    assert books.answers_read == 80
    assert books.errors == books.sheds == books.server_drops == 0
    # the daemon finalizes a line after writing its answers
    requests = server.telemetry.counter("requests")
    assert _wait_for(lambda: requests.value == 80)
    assert server.telemetry.counter("cache_hits").value > 0


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
    books = run_clients(addr, workloads(store_v1, 6, 40), chaos_seed=11)
    sent = books.finalized
    assert sent > 0
    # chaos actually happened: both misbehavior kinds fired
    assert books.garbage > 0
    assert books.client_disconnects > 0
    assert books.server_drops > 0  # the injected fault fired
    assert _wait_for(lambda: requests.value == sent)
    assert requests.value == sent
    assert server.telemetry.counter("fault_disconnects").value == (
        books.server_drops
    )
    # the daemon survived it all
    assert query_once(addr, {"op": "ping"})["ok"]


def test_chaos_runs_are_deterministic(store_v1, daemon):
    """Same seed, same store, no timing-dependent shedding: the chaos
    accounting is identical across runs."""
    _, addr = daemon(store_v1)
    loads = workloads(store_v1, 4, 30, seed=5)
    a = run_clients(addr, loads, chaos_seed=5)
    b = run_clients(addr, loads, chaos_seed=5)
    assert a == b
    assert a.garbage > 0 or a.client_disconnects > 0


def test_chaos_on_a_clean_store_matches_baseline(store_v1, daemon):
    _, addr = daemon(store_v1)
    loads = workloads(store_v1, 4, 40, seed=1)
    books = run_clients(addr, loads, chaos_seed=1,
                        expected=baseline_answers([store_v1], loads))
    assert books.mismatches == 0
    assert books.answers_read > 0
    assert books.errors == 0


def test_chaos_with_rate_limit_counts_sheds_not_errors(store_v1, daemon):
    server, addr = daemon(store_v1, rate_limit=50.0, burst=10.0)
    loads = workloads(store_v1, 4, 30, seed=2)
    books = run_clients(addr, loads, chaos_seed=2,
                        expected=baseline_answers([store_v1], loads))
    assert books.sheds > 0
    # sheds are not engine errors, and shed answers skip verification
    assert books.errors == 0
    assert books.mismatches == 0
    # a shed request is finalized like any other
    requests = server.telemetry.counter("requests")
    assert _wait_for(lambda: requests.value == books.finalized)
    assert server.telemetry.counter("sheds").value >= books.sheds


def test_midrun_hot_swap_answers_old_or_new_never_torn(
    tmp_path, store_v1, store_v3, daemon
):
    """Batch lines that reload the store half way through, from
    concurrent chaos clients: every answer on a line comes from the
    store pinned when the line arrived, never from the one its own
    ``reload`` promoted."""
    paths = [str(tmp_path / "v3.store.json"), str(tmp_path / "v1.store.json")]
    write_store(store_v3, paths[0])
    write_store(store_v1, paths[1])
    server, addr = daemon(store_v1, store_path=paths[1])
    # requests whose answers differ between the two stores
    pool = build_workload(store_v1, 200, repeat_half=False, seed=0)
    both = baseline_answers([store_v1, store_v3], [pool])
    moved = [req for req in pool
             if len(set(both.get(request_key(req), ()))) > 1]
    assert len({request_key(req) for req in moved}) >= 2
    loads = [
        [
            [moved[i % len(moved)], moved[(i + 1) % len(moved)],
             {"op": "reload", "path": paths[i % 2]},
             moved[i % len(moved)], moved[(i + 1) % len(moved)]]
            for i in range(c, c + 40)
        ]
        for c in range(4)
    ]
    books = run_clients(addr, loads, chaos_seed=7,
                        expected=baseline_answers([store_v1, store_v3],
                                                  loads))
    assert books.answers_read > 0
    assert books.errors == 0
    assert books.mismatches == 0
    assert server.generation > 1
    assert server.telemetry.counter("reload_failures").value == 0
