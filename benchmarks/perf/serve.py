"""The query daemon under test and the load client that drives it.

The daemon is a real ``python -m repro serve STORE --tcp 127.0.0.1:0``
child with default flags. All load comes from this process, in one
thread, over at most two TCP connections multiplexed by a selector, so
the numbers measure the daemon rather than a client contending for the
daemon's interpreter lock.

Requests carry no ``id``: the daemon answers each connection's lines in
order, so a per-connection FIFO pairs answers with requests, and equal
requests get byte-equal answers, which lets the checker verify every
answer by comparing each distinct answer line once.
"""

from __future__ import annotations

import collections
import json
import os
import re
import selectors
import signal
import socket
import subprocess
import time
from pathlib import Path
from typing import Optional

from .common import (
    BenchmarkError,
    child_env,
    median,
    quantile,
    repro_argv,
    tail_percentile,
)

_SERVING = re.compile(r"repro: serving .* on ([0-9.]+):(\d+)")


class Daemon:
    """One ``repro serve`` child on an ephemeral TCP port."""

    def __init__(self, store: Path, log_path: Path) -> None:
        self.store = store
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.addr: Optional[tuple[str, int]] = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait for the ``serving ... on HOST:PORT`` line;
        returns spawn-to-ready seconds (store load + seal check)."""
        log = open(self.log_path, "wb")
        started = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                repro_argv("serve", str(self.store), "--tcp", "127.0.0.1:0"),
                env=child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        finally:
            log.close()
        while True:
            text = self.log_path.read_text(errors="replace")
            m = _SERVING.search(text)
            if m:
                ready = time.perf_counter() - started
                self.addr = (m.group(1), int(m.group(2)))
                return ready
            if self.proc.poll() is not None:
                raise BenchmarkError(f"daemon exited before serving:\n{text}")
            if time.perf_counter() - started > timeout:
                self.stop()
                raise BenchmarkError(f"daemon not serving after {timeout}s")
            time.sleep(0.001)

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchmarkError("no VmHWM in /proc status")

    def stop(self, timeout: float = 20.0) -> Optional[int]:
        """SIGTERM (the daemon drains and exits 0), SIGKILL on timeout;
        always waits for the process to end."""
        if self.proc is None or self.proc.returncode is not None:
            return None if self.proc is None else self.proc.returncode
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


def start_daemons(store: Path, workdir: Path, spawns: int) -> tuple[list[float], Daemon]:
    """Spawn the daemon ``spawns`` times (each to ready); stop all but
    the last, which is returned still serving."""
    times = []
    daemon = None
    for i in range(spawns):
        if daemon is not None:
            daemon.stop()
        daemon = Daemon(store, workdir / f"serve-{i}.log")
        times.append(daemon.start())
    return times, daemon


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------


class _Conn:
    def __init__(self, addr: tuple[str, int]) -> None:
        self.sock = socket.create_connection(addr, timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.buf = bytearray()
        #: tags of the requests sent and not yet answered, oldest first
        self.pending: collections.deque = collections.deque()

    def flush(self) -> None:
        while self.out:
            try:
                n = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:n]


class Client:
    """Two connections, one selector, one thread."""

    CONNECTIONS = 2

    def __init__(self, addr: tuple[str, int]) -> None:
        # select(2) takes microsecond timeouts; epoll rounds up to whole
        # milliseconds, which would make an open loop send in bursts
        self.sel = selectors.SelectSelector()
        self.conns = [_Conn(addr) for _ in range(self.CONNECTIONS)]
        for i, c in enumerate(self.conns):
            self.sel.register(c.sock, selectors.EVENT_READ, i)

    def close(self) -> None:
        for c in self.conns:
            self.sel.unregister(c.sock)
            c.sock.close()
        self.sel.close()

    def send(self, ci: int, data: bytes, tag) -> None:
        c = self.conns[ci]
        c.pending.append(tag)
        was_empty = not c.out
        c.out += data
        c.flush()
        if c.out and was_empty:
            self.sel.modify(c.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, ci)

    def outstanding(self) -> int:
        return sum(len(c.pending) for c in self.conns)

    def pump(self, timeout: float) -> list[tuple[int, object, bytes, float]]:
        """Wait up to ``timeout`` seconds; return the answers read as
        ``(connection, tag, line, time read)``."""
        out = []
        for key, mask in self.sel.select(timeout):
            ci = key.data
            c = self.conns[ci]
            if mask & selectors.EVENT_WRITE:
                c.flush()
                if not c.out:
                    self.sel.modify(c.sock, selectors.EVENT_READ, ci)
            if mask & selectors.EVENT_READ:
                try:
                    data = c.sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                if not data:
                    raise ConnectionError("daemon closed the connection")
                now = time.monotonic()
                c.buf += data
                while True:
                    nl = c.buf.find(b"\n")
                    if nl < 0:
                        break
                    line = bytes(c.buf[:nl])
                    del c.buf[: nl + 1]
                    out.append((ci, c.pending.popleft(), line, now))
        return out

    def call(self, ci: int, request: dict, timeout: float = 30.0) -> dict:
        """One request/answer on an otherwise idle connection."""
        if self.conns[ci].pending:
            raise RuntimeError("call() on a busy connection")
        self.send(ci, json.dumps(request).encode() + b"\n", "call")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for _, tag, line, _ in self.pump(deadline - time.monotonic()):
                if tag == "call":
                    return json.loads(line)
        raise TimeoutError(f"no answer to {request!r} in {timeout}s")

    def drain(self, sink, timeout: float = 30.0) -> None:
        """Read until nothing is outstanding, passing answers to ``sink``."""
        deadline = time.monotonic() + timeout
        while self.outstanding():
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"{self.outstanding()} answers missing")
            for item in self.pump(min(left, 0.1)):
                sink(*item)


# ---------------------------------------------------------------------------
# requests and their checker
# ---------------------------------------------------------------------------


class ReadSet:
    """A seeded request list, its wire lines and its reference answers.

    ``expected`` comes from an in-process ``QueryEngine(store,
    cache_size=0)``; requests that engine rejects are dropped, so every
    request sent should be answered ``ok``. Answers are recorded with a
    context (the edit current when the request was sent, 0 for none),
    which :meth:`mismatches` hands to an optional second reference.
    """

    def __init__(self, store: dict, count: int, seed: int) -> None:
        from repro.bench.loadgen import build_workload
        from repro.query import QueryEngine, QueryError

        engine = QueryEngine(store, cache_size=0)
        keys: dict[str, int] = {}
        self.requests: list[dict] = []
        self.expected: list[str] = []
        self.lines: list[bytes] = []
        self.key_of: list[int] = []
        for req in build_workload(store, count, repeat_half=False, seed=seed):
            wire = json.dumps(req, sort_keys=True)
            k = keys.get(wire)
            if k is None:
                try:
                    answer = engine.query(dict(req))
                except QueryError:
                    continue
                k = keys[wire] = len(self.expected)
                self.requests.append(req)
                self.expected.append(json.dumps(answer, sort_keys=True))
            self.lines.append(wire.encode() + b"\n")
            self.key_of.append(k)
        self.distinct = len(self.expected)
        #: (key, answer line, context) -> times seen
        self.seen: collections.Counter = collections.Counter()

    def record(self, index: int, line: bytes, context: int = 0) -> None:
        self.seen[(self.key_of[index], line, context)] += 1

    def mismatches(self, reference=None) -> int:
        """Answers that were not ``ok``, or that differ from the reference
        and from ``reference(context, request)`` (when given) for the
        contexts next to the one recorded."""
        bad = 0
        for (k, line, context), n in self.seen.items():
            try:
                env = json.loads(line)
                ok = env.get("ok") is True and env.get("status") == 0
                result = json.dumps(env["result"], sort_keys=True) if ok else None
            except (ValueError, KeyError):
                result = None
            good = result is not None and (
                result == self.expected[k]
                or reference is not None and any(
                    result == reference(c, self.requests[k])
                    for c in (context, context + 1, context - 1)
                )
            )
            if not good:
                bad += n
        return bad


# ---------------------------------------------------------------------------
# load shapes
# ---------------------------------------------------------------------------


def closed_loop(client: Client, reads: ReadSet, seconds: float, segments: int = 5) -> dict:
    """Each connection keeps one request outstanding; the next goes out
    when the answer arrives. Throughput is the median of ``segments``
    equal slices of the window."""
    n = len(reads.lines)
    nconn = len(client.conns)
    nxt = 0
    latencies: list[float] = []
    counts = [0] * segments
    t0 = time.monotonic()
    end = t0 + seconds
    slice_s = seconds / segments
    for ci in range(nconn):
        client.send(ci, reads.lines[nxt % n], (nxt % n, time.monotonic()))
        nxt += 1
    while client.outstanding():
        for ci, (idx, sent), line, t in client.pump(max(0.0, end - time.monotonic())):
            reads.record(idx, line)
            if t < end:
                latencies.append(t - sent)
                counts[int((t - t0) / slice_s)] += 1
                client.send(ci, reads.lines[nxt % n], (nxt % n, time.monotonic()))
                nxt += 1
    latencies.sort()
    return {
        "attempted": nxt,
        "qps": median([c / slice_s for c in counts]),
        "p50_ms": quantile(latencies, 0.5) * 1e3,
        "samples": len(latencies),
    }


def open_loop(client: Client, reads: ReadSet, rate: float, seconds: float) -> dict:
    """Requests fall due every ``1/rate`` seconds, round-robin over the
    connections, whether or not earlier ones were answered. Latency is
    timed from each request's due time; ``late`` is how far behind its
    schedule the generator sent."""
    n = len(reads.lines)
    nconn = len(client.conns)
    total = int(rate * seconds)
    latencies: list[float] = []
    late: list[float] = []
    t0 = time.monotonic() + 0.01
    k = 0

    def sink(ci, tag, line, t):
        idx, due = tag
        reads.record(idx, line)
        latencies.append(t - due)

    while k < total:
        now = time.monotonic()
        while k < total:
            due = t0 + k / rate
            if due > now:
                break
            client.send(k % nconn, reads.lines[k % n], (k % n, due))
            late.append(now - due)
            k += 1
        wait = (t0 + k / rate) - time.monotonic() if k < total else 0.0
        for item in client.pump(max(0.0, wait)):
            sink(*item)
    client.drain(sink)
    latencies.sort()
    late.sort()
    return {
        "attempted": total,
        "p50_ms": quantile(latencies, 0.5) * 1e3,
        "tail_ms": _tail(latencies) * 1e3,
        "samples": len(latencies),
        "late_p99_ms": quantile(late, 0.99) * 1e3,
        "late_max_ms": late[-1] * 1e3,
    }


def _tail(ordered: list[float]) -> float:
    """The highest percentile with ten samples beyond it (p99 from 1000
    samples on), or the maximum when there are too few samples."""
    p = tail_percentile(len(ordered))
    return quantile(ordered, p / 100) if p else ordered[-1]


def replace_atomically(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".edit.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def warm_up_edit(client: Client, source: Path, pristine: str, proc: str,
                 reads: ReadSet, cap: float = 10.0) -> bool:
    """One untimed edit (number 0) before the timed window, so the
    daemon's first refresh, which pays for cold code paths, is not a
    sample; then the pristine text again. True when the edit was
    answered fresh and, once restored, a read answered as before it."""
    from .edits import EDIT_VAR, apply_edit, edit_target

    replace_atomically(source, apply_edit(pristine, proc, 0))
    request = {"op": "points_to", "var": EDIT_VAR, "proc": proc}
    deadline = time.monotonic() + cap
    fresh = False
    while not fresh and time.monotonic() < deadline:
        env = client.call(0, request, timeout=cap)
        fresh = bool(env.get("ok")) and edit_target(0) in (env.get("result") or {}).get("targets", ())
    replace_atomically(source, pristine)
    env = client.call(0, reads.requests[0], timeout=cap)
    restored = env.get("ok") is True and json.dumps(env["result"], sort_keys=True) == reads.expected[0]
    return fresh and restored


def edit_loop(
    client: Client,
    source: Path,
    pristine: str,
    procs: list[str],
    reads: ReadSet,
    interval: float,
    read_rate: float,
    cap: float = 10.0,
) -> dict:
    """Edits beside reads. Edit *n* replaces ``source`` with the pristine
    text plus edit *n* in ``procs[n-1]``, no sooner than ``n-1``
    intervals after the start and never before edit *n-1* was seen
    fresh. Connection 0 then re-asks ``points_to bench_edit_p@P`` until
    the answer names ``bench_edit_t<n>`` (``cap`` seconds at most) and
    reads the daemon's stale-set size; connection 1 sends reads at
    ``read_rate`` throughout, timed from their due times and recorded
    with the edit current when they were sent."""
    from .edits import EDIT_VAR, apply_edit, edit_target

    t0 = time.monotonic() + 0.01
    read_total = int(read_rate * interval * len(procs))
    fresh_ms: list[float] = []
    attempts: list[int] = []
    stale_procs: list[int] = []
    read_lat: list[float] = []
    timeouts = 0
    n = 0
    k = 0
    next_edit = t0
    waiting = False
    replaced = 0.0
    tries = 0
    fresh_line = b""

    def sink(ci, tag, line, t):
        idx, due, context = tag
        reads.record(idx, line, context)
        read_lat.append(t - due)

    while n < len(procs) or waiting or k < read_total:
        now = time.monotonic()
        if not waiting and n < len(procs) and now >= next_edit:
            n += 1
            proc = procs[n - 1]
            replace_atomically(source, apply_edit(pristine, proc, n))
            replaced = time.monotonic()
            fresh_line = json.dumps(
                {"op": "points_to", "var": EDIT_VAR, "proc": proc}
            ).encode() + b"\n"
            tries = 1
            waiting = True
            client.send(0, fresh_line, "fresh")
        while k < read_total and t0 + k / read_rate <= now:
            due = t0 + k / read_rate
            idx = k % len(reads.lines)
            client.send(1, reads.lines[idx], (idx, due, n))
            k += 1
        wake = [t0 + k / read_rate] if k < read_total else []
        if not waiting and n < len(procs):
            wake.append(next_edit)
        wait = min(wake) - time.monotonic() if wake else 0.05
        for ci, tag, line, t in client.pump(max(0.0, min(wait, 0.05))):
            if ci == 1:
                sink(ci, tag, line, t)
            elif tag == "fresh":
                env = json.loads(line)
                result = env.get("result") or {}
                if env.get("ok") and edit_target(n) in result.get("targets", ()):
                    fresh_ms.append((t - replaced) * 1e3)
                    attempts.append(tries)
                    client.send(0, b'{"op": "stats"}\n', "stats")
                elif t - replaced > cap:
                    timeouts += 1
                    waiting = False
                    next_edit = max(t0 + n * interval, t)
                else:
                    tries += 1
                    client.send(0, fresh_line, "fresh")
            elif tag == "stats":
                demand = json.loads(line)["result"].get("demand") or {}
                stale_procs.append(demand.get("stale_procs", 0))
                waiting = False
                next_edit = max(t0 + n * interval, t)

    client.drain(sink)
    replace_atomically(source, pristine)
    read_lat.sort()
    return {
        "edits": n,
        "reads": read_total,
        "timeouts": timeouts,
        "fresh_ms": fresh_ms,
        "attempts": attempts,
        "stale_procs": stale_procs,
        "read_p50_ms": quantile(read_lat, 0.5) * 1e3,
        "read_tail_ms": _tail(read_lat) * 1e3,
        "read_max_ms": read_lat[-1] * 1e3,
    }


def server_view(client: Client) -> dict:
    """The daemon's own counters and latency histogram (``stats`` op)."""
    env = client.call(0, {"op": "stats"})
    result = env["result"]
    hist = result["server"]["telemetry"]["histograms"]["latency"]
    return {
        "cache_hits": result["cache_hits"],
        "cache_misses": result["cache_misses"],
        "server_p50_ms": hist["p50"],
        "server_p99_ms": hist["p99"],
        "demand": result.get("demand") or {},
    }
