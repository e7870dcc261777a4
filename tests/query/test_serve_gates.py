"""End-to-end gates over a ``repro serve --tcp`` daemon in its own process.

* **Load gate.**  64 clients x 100 requests over the compiler store:
  zero error envelopes, real LRU hits, a SIGTERM drain that exits 0
  with its shutdown and telemetry lines, and one access-log line per
  request sent.  Served latency is not gated here: the repo benchmark
  measures it (``benchmarks/perf``: serve-read).
* **Chaos gate** (docs/ROBUSTNESS.md §8).  64 misbehaving clients x 50
  requests over grep, against a rate-limited daemon that injects slow
  handlers and mid-request disconnects and watches its store path.
  Under that traffic a corrupt store is refused (generation 1 keeps
  serving) and a re-indexed store is promoted (generation 2).  Every
  answer matches one of the two stores, and the daemon drains on
  SIGTERM with exit 0 and no traceback.
"""

import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.bench.loadgen import build_workload
from repro.query import load_store
from tests.query.load_clients import baseline_answers, run_clients

ROOT = Path(__file__).resolve().parents[2]
PROGRAMS = ROOT / "benchmarks" / "programs"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
))

#: appended to the program copy so the re-indexed store's digests
#: (the globals digest too) really move
EDIT = """

int repro_chaos_extra_global;
int *repro_chaos_extra(void) { return &repro_chaos_extra_global; }
"""


def repro(*args):
    subprocess.run([sys.executable, "-m", "repro", *map(str, args)],
                   env=ENV, check=True, capture_output=True)


def wait_for(predicate, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def query_once(addr, request):
    with socket.create_connection(addr, timeout=10) as sock:
        fh = sock.makefile("rw", encoding="utf-8")
        fh.write(json.dumps(request) + "\n")
        fh.flush()
        return json.loads(fh.readline())


@contextmanager
def serve(store, stderr_path, *flags):
    """A ``repro serve`` daemon on an ephemeral port: ``(proc, addr)``."""
    with open(stderr_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(store),
             "--tcp", "127.0.0.1:0", *map(str, flags)],
            stderr=err, env=ENV,
        )
    try:
        assert wait_for(lambda: "repro: serving" in stderr_path.read_text())
        match = re.search(r"repro: serving \S+ on ([\d.]+):(\d+)",
                          stderr_path.read_text())
        yield proc, (match.group(1), int(match.group(2)))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def sigterm(proc) -> int:
    proc.send_signal(signal.SIGTERM)
    return proc.wait(timeout=30)


def test_serve_load_gate(tmp_path):
    store_path = tmp_path / "compiler.store.json"
    repro("index", PROGRAMS / "compiler.c", "--name", "compiler",
          "-o", store_path)
    access = tmp_path / "access.jsonl"
    stderr_path = tmp_path / "serve-stderr.txt"
    store = load_store(str(store_path))
    loads = [build_workload(store, 100, seed=i) for i in range(64)]
    with serve(store_path, stderr_path, "--access-log", access) as (
        proc, addr
    ):
        books = run_clients(addr, loads)
        stats = query_once(addr, {"op": "stats", "id": "gate"})["result"]
        assert sigterm(proc) == 0
    sent = 64 * 100 + 1  # the workloads and the stats probe
    assert books.answers_read == 64 * 100
    assert books.errors == 0
    assert stats["cache_hits"] > 0
    stderr = stderr_path.read_text()
    assert "repro: shutdown (SIGTERM)" in stderr
    assert "repro: telemetry" in stderr
    assert len(access.read_text().splitlines()) == sent


def test_chaos_serve_gate(tmp_path):
    prog = tmp_path / "prog.c"
    serving = tmp_path / "serving.store.json"
    promoted = tmp_path / "b.store.json"
    shutil.copyfile(PROGRAMS / "grep.c", prog)
    repro("index", prog, "--name", "chaos", "-o", serving)
    with open(prog, "a", encoding="utf-8") as fh:
        fh.write(EDIT)
    repro("index", prog, "--name", "chaos", "-o", promoted)
    old, new = load_store(str(serving)), load_store(str(promoted))
    loads = [build_workload(old, 50, seed=i) for i in range(64)]
    expected = baseline_answers([old, new], loads)

    stderr_path = tmp_path / "serve-stderr.txt"
    with serve(serving, stderr_path,
               "--watch", "0.2",
               "--rate-limit", "2000", "--burst", "500",
               "--idle-timeout", "30",
               "--inject-serve-faults",
               "seed=3,slow=0.03,disconnect=0.02,slow_ms=5",
               "--access-log", tmp_path / "access.jsonl") as (proc, addr):
        outcome = {}

        def load():
            try:
                outcome["books"] = run_clients(addr, loads, chaos_seed=0,
                                               expected=expected)
            except Exception as exc:
                outcome["error"] = exc

        clients = threading.Thread(target=load)
        clients.start()
        try:
            # a corrupt store is refused; generation 1 keeps serving
            time.sleep(0.5)
            serving.write_text('{"format": "repro-store/2", "truncated')
            assert wait_for(
                lambda: "repro: reload failed" in stderr_path.read_text()
            )
            health = query_once(addr, {"op": "health", "id": "gate"})
            assert health["result"]["generation"] == 1, health
            # an atomic promotion is swapped in
            shutil.copyfile(promoted, str(serving) + ".new")
            os.replace(str(serving) + ".new", serving)
            assert wait_for(lambda: "repro: reload: generation 2"
                            in stderr_path.read_text())
            health = query_once(addr, {"op": "health", "id": "gate"})
            assert health["result"]["generation"] == 2, health
        finally:
            clients.join(120)
        assert not clients.is_alive()
        assert "error" not in outcome, outcome
        server = query_once(addr, {"op": "stats", "id": "gate"})[
            "result"]["server"]
        assert sigterm(proc) == 0
    books = outcome["books"]
    assert books.mismatches == 0
    assert books.answers_read > 0
    assert server["generation"] == 2
    assert server["reload_failures"] >= 1
    stderr = stderr_path.read_text()
    assert "repro: shutdown (SIGTERM)" in stderr
    assert "Traceback" not in stderr
