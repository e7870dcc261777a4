"""CI smoke client for the query daemon (docs/QUERY.md).

Starts ``repro serve <store> --tcp`` as a subprocess, replays a scripted
batch of points-to/alias/modref queries built from the store's own index
— the second half repeats the first, so the shared LRU cache must report
hits — then replays the same requests as pipelined single lines over two
concurrent connections, sent in small chunks so lines straddle ``recv``
boundaries, and asserts each connection's answers equal the batch's,
byte for byte and in order.  Finally it shuts the daemon down and
asserts a clean exit.

Usage::

    python benchmarks/serve_smoke_client.py stores/allroots.store.json \
        --log query-logs/allroots.jsonl [--port 7893]

Exit 0 on success; any assertion failure or daemon misbehavior exits
non-zero (CI treats both as a failed smoke).
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import threading
import time


def build_requests(store: dict, cap: int = 12) -> list[dict]:
    """A scripted mix over real store facts: call-graph + modref of
    main, then points-to/alias over the first procedures' variables."""
    reqs: list[dict] = [
        {"op": "callees", "proc": "main"},
        {"op": "modref", "proc": "main"},
    ]
    for pname, rec in sorted(store["index"]["procedures"].items()):
        pool = sorted(rec["vars"])
        for var in pool:
            reqs.append({"op": "points_to", "var": var, "proc": pname})
        if len(pool) >= 2:
            reqs.append(
                {"op": "alias", "a": pool[0], "b": pool[1], "proc": pname}
            )
        if len(reqs) >= cap:
            break
    return reqs


def pipelined_replay(port: int, batch: list[dict], chunk: int = 61
                     ) -> list[str]:
    """Send every request of ``batch`` as its own line, all before
    reading, in ``chunk``-byte pieces; return the answer lines."""
    payload = "".join(json.dumps(r) + "\n" for r in batch).encode("utf-8")
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        for start in range(0, len(payload), chunk):
            sock.sendall(payload[start:start + chunk])
        fh = sock.makefile("r", encoding="utf-8")
        return [fh.readline() for _ in batch]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("store", help="store path written by 'repro index'")
    parser.add_argument("--log", required=True,
                        help="where to write the response log (JSONL)")
    parser.add_argument("--port", type=int, default=7893)
    args = parser.parse_args(argv)

    with open(args.store, "r", encoding="utf-8") as fh:
        store = json.load(fh)

    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", args.store,
         "--tcp", f"127.0.0.1:{args.port}"],
        env={**os.environ},
    )
    try:
        for _ in range(100):
            try:
                sock = socket.create_connection(
                    ("127.0.0.1", args.port), timeout=1
                )
                break
            except OSError:
                time.sleep(0.1)
        else:
            raise SystemExit(f"daemon for {args.store} never came up")

        reqs = build_requests(store)
        reqs = reqs + reqs  # the repeated half: must hit the cache
        os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)
        with sock, open(args.log, "w", encoding="utf-8") as log:
            fh = sock.makefile("rw", encoding="utf-8")
            batch = [dict(r, id=i) for i, r in enumerate(reqs)]
            fh.write(json.dumps(batch) + "\n")
            fh.flush()
            answers = []
            for _ in batch:
                line = fh.readline()
                log.write(line)
                env = json.loads(line)
                assert env["ok"] and env["status"] == 0, env
                answers.append(line)

            # the same requests pipelined on two concurrent connections
            replays: list = [None, None]

            def replay(slot: int) -> None:
                replays[slot] = pipelined_replay(args.port, batch)

            workers = [threading.Thread(target=replay, args=(slot,))
                       for slot in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
                assert not worker.is_alive(), "pipelined replay hung"
            for slot, got in enumerate(replays):
                assert got == answers, (
                    f"connection {slot}: pipelined answers differ from "
                    "the batch replay"
                )

            fh.write(json.dumps({"op": "stats", "id": "s"}) + "\n")
            fh.flush()
            stats_line = fh.readline()
            log.write(stats_line)
            stats = json.loads(stats_line)["result"]
            assert stats["cache_hits"] > 0, f"no cache hits: {stats}"
            assert stats["cache_hit_rate"] and stats["cache_hit_rate"] > 0

            fh.write(json.dumps({"op": "shutdown", "id": "z"}) + "\n")
            fh.flush()
            log.write(fh.readline())

        code = daemon.wait(timeout=30)
        assert code == 0, f"daemon exited {code}"
        print(
            f"{store.get('program', args.store)}: {len(reqs)} queries "
            f"(+2x{len(reqs)} pipelined), hit rate "
            f"{stats['cache_hit_rate']}, clean shutdown"
        )
        return 0
    finally:
        if daemon.poll() is None:  # pragma: no cover - cleanup path
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    raise SystemExit(main())
