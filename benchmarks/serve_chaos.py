"""CI chaos gate for the serve daemon (docs/ROBUSTNESS.md §8).

End-to-end fault-tolerance proof over a real daemon subprocess:

1. index a benchmark program into a store, then index an edited copy
   (a new global + procedure, so every digest legitimately moves) into
   the hot-swap target;
2. start ``repro serve`` with rate limiting, injected serve faults
   (slow handlers + mid-request disconnects), an idle timeout, and
   ``--watch`` polling the serving store path;
3. run a chaos loadtest (misbehaving clients, answers verified against
   the union baseline of both stores) and, while it runs, first corrupt
   the serving store on disk — the watcher must *refuse* the reload and
   keep serving the old generation — then atomically promote the new
   store and require generation 2;
4. SIGTERM the daemon and require exit 0, a drained shutdown line, and
   **zero tracebacks** anywhere on its stderr.

Usage::

    python benchmarks/serve_chaos.py benchmarks/programs/grep.c \
        --workdir chaos-work [--clients 64] [--requests 50] [--quick]

Exit 0 iff every gate holds.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time

#: appended to the program copy so the re-index produces a store whose
#: digests (including the globals digest) really moved
EDIT = """

int repro_chaos_extra_global;
int *repro_chaos_extra(void) { return &repro_chaos_extra_global; }
"""

SERVE_FAULTS = "seed=3,slow=0.03,disconnect=0.02,slow_ms=5"


def run(cmd: list[str], **kwargs) -> subprocess.CompletedProcess:
    print("+", " ".join(cmd), flush=True)
    return subprocess.run(cmd, check=True, **kwargs)


def wait_for(predicate, timeout: float, what: str):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    raise SystemExit(f"chaos gate: timed out waiting for {what}")


def stderr_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def query_once(port: int, request: dict) -> dict:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        fh = sock.makefile("rw", encoding="utf-8")
        fh.write(json.dumps(request) + "\n")
        fh.flush()
        return json.loads(fh.readline())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("program", help="benchmark .c file to index")
    parser.add_argument("--workdir", default="chaos-work")
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--quick", action="store_true",
                        help="8 clients x 20 requests (local smoke)")
    args = parser.parse_args(argv)
    clients = 8 if args.quick else args.clients
    requests = 20 if args.quick else args.requests

    work = args.workdir
    os.makedirs(work, exist_ok=True)
    prog = os.path.join(work, "prog.c")
    serving = os.path.join(work, "serving.store.json")
    store_a = os.path.join(work, "a.store.json")
    store_b = os.path.join(work, "b.store.json")
    stderr_path = os.path.join(work, "serve-stderr.txt")
    shutil.copyfile(args.program, prog)

    # 1. the two stores: the one served at startup, and the swap target
    run([sys.executable, "-m", "repro", "index", prog,
         "--name", "chaos", "-o", serving])
    shutil.copyfile(serving, store_a)
    with open(prog, "a", encoding="utf-8") as fh:
        fh.write(EDIT)
    run([sys.executable, "-m", "repro", "index", prog,
         "--name", "chaos", "-o", store_b])

    # 2. the daemon under test: overload protection + injected faults
    #    + the --watch poller on the serving store path
    stderr_fh = open(stderr_path, "w", encoding="utf-8")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", serving,
         "--tcp", "127.0.0.1:0",
         "--watch", "0.2",
         "--rate-limit", "2000", "--burst", "500",
         "--idle-timeout", "30",
         "--inject-serve-faults", SERVE_FAULTS,
         "--access-log", os.path.join(work, "access.jsonl")],
        stderr=stderr_fh,
    )
    try:
        wait_for(lambda: "repro: serving" in stderr_text(stderr_path),
                 30, "the daemon's serving announcement")
        match = re.search(r"repro: serving \S+ on [\d.]+:(\d+)",
                          stderr_text(stderr_path))
        assert match, stderr_text(stderr_path)
        port = int(match.group(1))

        # 3. chaos loadtest, with the corrupt-then-promote sequence
        #    happening under its live traffic; answers must match the
        #    union baseline (old-or-new, never a torn mix) — the
        #    loadtest's own chaos gate exits non-zero on any mismatch
        load = subprocess.Popen(
            [sys.executable, "-m", "repro", "loadtest", serving,
             "--tcp", f"127.0.0.1:{port}", "--chaos",
             "--clients", str(clients), "--requests", str(requests),
             "--expect-store", store_b,
             "--json", "-o", os.path.join(work, "chaos-report.json")],
        )

        # 3a. corrupt the serving store: the watcher must refuse it
        time.sleep(0.5)
        with open(serving, "w", encoding="utf-8") as fh:
            fh.write('{"format": "repro-store/2", "truncated')
        wait_for(lambda: "repro: reload failed" in stderr_text(stderr_path),
                 30, "the watcher's reload refusal")
        health = query_once(port, {"op": "health", "id": "gate"})
        assert health["ok"], health
        assert health["result"]["generation"] == 1, health

        # 3b. atomic promotion: the watcher must hot-swap to gen 2
        tmp = serving + ".new"
        shutil.copyfile(store_b, tmp)
        os.replace(tmp, serving)
        wait_for(lambda: "repro: reload: generation 2" in
                 stderr_text(stderr_path), 30, "the hot swap")
        health = query_once(port, {"op": "health", "id": "gate"})
        assert health["result"]["generation"] == 2, health

        code = load.wait(timeout=600)
        if code != 0:
            raise SystemExit(f"chaos gate: loadtest exited {code}")
        with open(os.path.join(work, "chaos-report.json"),
                  encoding="utf-8") as fh:
            report = json.load(fh)
        chaos = report["chaos"]
        assert chaos["mismatches"] == 0, chaos
        assert chaos["answers_read"] > 0, chaos

        # the daemon's own books for the run
        stats = query_once(port, {"op": "stats", "id": "gate"})["result"]
        server = stats["server"]
        assert server["generation"] == 2, server
        assert server["reload_failures"] >= 1, server

        # 4. SIGTERM drain: exit 0, shutdown line, no tracebacks
        daemon.send_signal(signal.SIGTERM)
        code = daemon.wait(timeout=30)
        if code != 0:
            raise SystemExit(f"chaos gate: daemon exited {code} on SIGTERM")
        stderr = stderr_text(stderr_path)
        assert "repro: shutdown (SIGTERM)" in stderr, stderr[-2000:]
        if "Traceback" in stderr:
            print(stderr, file=sys.stderr)
            raise SystemExit("chaos gate: daemon stderr holds a traceback")

        print(
            f"chaos gate: {clients} clients x {requests} requests, "
            f"{chaos['answers_read']} answers verified "
            f"({chaos['sheds']} shed, {chaos['server_drops']} dropped, "
            f"{chaos['garbage']} garbage), refused 1 corrupt reload, "
            f"promoted generation 2, clean SIGTERM drain"
        )
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        stderr_fh.close()


if __name__ == "__main__":
    raise SystemExit(main())
