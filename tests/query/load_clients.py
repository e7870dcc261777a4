"""Concurrent TCP clients for the daemon's load gates.

:func:`run_clients` replays one workload per client thread against a
running ``repro serve --tcp`` daemon and returns only accounting: no
latency, no report.  Latency and throughput are the repo benchmark's
to measure (``benchmarks/perf``: serve-read, serve-edit).

A workload item is one request (one line) or a list of requests (one
batch line, answered in order).  With ``chaos_seed`` each client
misbehaves deterministically, from ``random.Random(f"chaos:{seed}:{i}")``:
about 8% of its lines are non-JSON garbage and 8% are mid-request
disconnects (send, close without reading, reconnect).  An empty read
(the daemon's injected ``disconnect`` fault) is then a server drop and a
reconnect, not a failure.  So every request the daemon finalized is an
answer read, a client disconnect or a server drop -- the invariant the
gates check against the daemon's ``requests`` counter.

With ``expected`` (:func:`baseline_answers` over one or more stores)
every ``ok`` answer is checked: all answers on one line must be the
answers of one store.  Over the stores before and after a hot swap that
is the never-torn contract -- old or new, never a mix.
"""

import json
import random
import socket
import threading
from dataclasses import dataclass, fields

GARBAGE_RATE = 0.08
DISCONNECT_RATE = 0.08
#: seconds any one connect, read or join may take
TIMEOUT = 60.0


@dataclass
class Accounting:
    answers_read: int = 0
    sheds: int = 0
    garbage: int = 0
    client_disconnects: int = 0
    server_drops: int = 0
    errors: int = 0
    #: lines whose ok answers no single baseline store gives
    mismatches: int = 0

    def add(self, other: "Accounting") -> None:
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    @property
    def finalized(self) -> int:
        """Requests the daemon read and finalized, by this account."""
        return self.answers_read + self.client_disconnects + self.server_drops


def request_key(req: dict) -> str:
    """A request minus its client ``id``: two clients asking the same
    question share one baseline entry."""
    return json.dumps({k: v for k, v in req.items() if k != "id"},
                      sort_keys=True)


def baseline_answers(stores, workloads) -> dict:
    """Fault-free answers to the workload requests: ``request_key`` ->
    one serialized result per store (None where that store answers with
    an error).  Requests no store answers (control ops, bad names) are
    left out, and their answers go unchecked."""
    from repro.query import QueryEngine, QueryError

    engines = [QueryEngine(store, cache_size=0) for store in stores]
    expected: dict = {}
    seen: set = set()
    for workload in workloads:
        for item in workload:
            for req in _batch(item):
                key = request_key(req)
                if key in seen:
                    continue
                seen.add(key)
                answers = []
                for engine in engines:
                    try:
                        result = engine.query(dict(req))
                    except QueryError:
                        result = None
                    answers.append(
                        None if result is None
                        else json.dumps(result, sort_keys=True)
                    )
                if any(answers):
                    expected[key] = answers
    return expected


def _batch(item) -> list:
    return item if isinstance(item, list) else [item]


def _connect(addr):
    sock = socket.create_connection(addr, timeout=TIMEOUT)
    return sock, sock.makefile("rw", encoding="utf-8")


def _check_line(books, batch, answers, expected) -> None:
    """Account one line's answers; count it as a mismatch when no
    single store gives every ok answer on it."""
    stores = None
    for req, line in zip(batch, answers):
        envelope = json.loads(line)
        code = (envelope.get("error") or {}).get("code")
        if code == "overloaded":
            books.sheds += 1
            continue
        if not envelope.get("ok"):
            books.errors += 1
            continue
        if expected is None:
            continue
        allowed = expected.get(request_key(req))
        if allowed is None:
            continue
        got = json.dumps(envelope.get("result"), sort_keys=True)
        match = {i for i, answer in enumerate(allowed) if answer == got}
        stores = match if stores is None else stores & match
    if stores is not None and not stores:
        books.mismatches += 1


def _run_client(addr, workload, books, barrier, rng, expected, failures):
    sock = fh = None
    try:
        sock, fh = _connect(addr)
        barrier.wait(timeout=TIMEOUT)
        for i, item in enumerate(workload):
            batch = [dict(req, id=i) for req in _batch(item)]
            draw = rng.random() if rng is not None else 1.0
            if draw < GARBAGE_RATE:
                # the daemon answers one bad-json envelope (or drops us
                # through its own injected fault)
                books.garbage += 1
                try:
                    fh.write(f"@@chaos garbage {i}@@\n")
                    fh.flush()
                    line = fh.readline()
                except OSError:
                    line = ""
                if line:
                    books.answers_read += 1
                else:
                    books.server_drops += 1
                    sock.close()
                    sock, fh = _connect(addr)
                continue
            payload = json.dumps(batch if isinstance(item, list)
                                 else batch[0])
            if draw < GARBAGE_RATE + DISCONNECT_RATE:
                # send, then vanish without reading: the line reaches the
                # daemon before our FIN, so it is read and finalized
                try:
                    fh.write(payload + "\n")
                    fh.flush()
                    books.client_disconnects += len(batch)
                except OSError:
                    pass  # the line never reached the daemon
                sock.close()
                sock, fh = _connect(addr)
                continue
            answers = []
            try:
                fh.write(payload + "\n")
                fh.flush()
                for _ in batch:
                    line = fh.readline()
                    if not line:
                        break
                    answers.append(line)
            except OSError:
                if rng is None:
                    raise
            books.answers_read += len(answers)
            if len(answers) < len(batch):
                if rng is None:
                    raise OSError("daemon closed the connection mid-run")
                # the injected disconnect fault: the line was processed
                # and finalized, its answers never written
                books.server_drops += len(batch) - len(answers)
                sock.close()
                sock, fh = _connect(addr)
            _check_line(books, batch, answers, expected)
    except Exception as exc:
        failures.append(exc)
        barrier.abort()
    finally:
        if sock is not None:
            sock.close()


def run_clients(addr, workloads, chaos_seed=None, expected=None
                ) -> Accounting:
    """Replay ``workloads`` (one per client thread) against the daemon
    at ``addr``; every client connects first and all start together."""
    books = [Accounting() for _ in workloads]
    failures: list = []
    barrier = threading.Barrier(len(workloads) + 1)
    threads = [
        threading.Thread(
            target=_run_client,
            args=(addr, workload, books[i], barrier,
                  None if chaos_seed is None
                  else random.Random(f"chaos:{chaos_seed}:{i}"),
                  expected, failures),
            daemon=True,
        )
        for i, workload in enumerate(workloads)
    ]
    for t in threads:
        t.start()
    try:
        barrier.wait(timeout=TIMEOUT)
    except threading.BrokenBarrierError:
        pass  # a client failed to connect; reported below
    for t in threads:
        t.join(TIMEOUT)
    if failures:
        raise OSError(f"load client failed: {failures[0]!r}")
    if any(t.is_alive() for t in threads):
        raise OSError(f"load client still running after {TIMEOUT}s")
    total = Accounting()
    for b in books:
        total.add(b)
    return total
