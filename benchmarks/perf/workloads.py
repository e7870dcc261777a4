"""The four workloads, measured end to end with tracing off.

Each workload returns an :class:`Outcome`: the end-to-end metrics, the
counts of operations attempted and failed, and what the traced pass
needs (which programs to trace, which to serve, the untraced index
times it compares against).
"""

from __future__ import annotations

import json
import random
import shutil
import time
from pathlib import Path
from statistics import fmean

from . import serve
from .common import (
    PROGRAMS,
    PYTHON,
    geomean,
    load_expected_digests,
    median,
    repro_argv,
    run_child,
)
from .edits import apply_edit, eligible_procedures, edit_sequence

#: the Table 2 programs other than compiler, 90-290 lines each
SMALL = [
    "allroots", "alvinn", "assembler", "compress", "diff", "ear",
    "eqntott", "football", "grep", "lex315", "loader", "simulator",
]
#: fixpoint-bound (interp), half frontend (dbase), the paper's
#: invocation-graph blow-up case (compiler)
LARGE = ["compiler", "dbase", "interp"]

QUERIES_PER_CALL = 3
#: requests drawn per serve workload; about 500 are distinct, twice the
#: daemon's 256-entry cache, so the cache both hits and misses
READ_REQUESTS = 2000
#: half of what the daemon and the client sustain in the host's slow
#: phases; at 4000 req/s a slow phase put the generator tens of
#: milliseconds behind and the median read at 5-10 ms
OPEN_LOOP_RATE = 2000.0
EDIT_INTERVAL_S = 2.0
EDIT_READ_RATE = 200.0
#: cold imports or daemon spawns per run; set-up time is their median
SETUP_RUNS = 7

# Operations of a tenth of a second or more (index and query runs,
# edits) are summarised by their mean, not their median. Each one runs
# while the host's CPU is in either a fast or a slow phase, so their
# times form two modes whose mix shifts from run to run. A median then
# jumps between the modes; a mean moves only as far as the mix does.


class Outcome:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, float] = {}
        #: samples behind each end-to-end metric
        self.samples: dict[str, int] = {}
        #: per-layer metrics the untraced pass already measured
        self.layers: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: programs the traced pass runs through every layer
        self.traced_programs: list[str] = []
        #: the program whose store the traced pass serves and edits
        self.serve_program = ""
        #: untraced ``repro index`` seconds per program (mean)
        self.index_seconds: dict[str, float] = {}

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.errors) < 20:
            self.errors.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


def _spec(req: dict) -> str:
    op = req["op"]
    if op == "points_to":
        return f"points-to {req['var']}@{req['proc']}"
    if op == "alias":
        return f"alias {req['a']} {req['b']}@{req['proc']}"
    if op == "pointed_by":
        return f"pointed-by {req['name']}"
    if op == "reaches":
        return f"reaches {req['src']} {req['dst']}"
    return f"{op.replace('_', '-')} {req['proc']}"


def draw_queries(store: dict, program: str, seed: int) -> tuple[list[str], list[str]]:
    """``QUERIES_PER_CALL`` seeded textual queries drawn from the store,
    with their reference answers from an in-process engine."""
    from repro.bench.loadgen import build_workload
    from repro.query import QueryEngine, QueryError, parse_query_spec

    engine = QueryEngine(store, cache_size=0)
    rng = random.Random(f"queries:{seed}:{program}")
    specs: list[str] = []
    answers: list[str] = []
    pool = build_workload(store, 64, repeat_half=False, seed=rng.randrange(1 << 30))
    for req in pool:
        spec = _spec(req)
        try:  # names with spaces do not survive the textual form
            parsed = parse_query_spec(spec)
            if parsed != req:
                continue
            answer = engine.query(parsed)
        except QueryError:
            continue
        specs.append(spec)
        answers.append(json.dumps(answer, sort_keys=True))
        if len(specs) == QUERIES_PER_CALL:
            return specs, answers
    raise RuntimeError(f"cannot draw {QUERIES_PER_CALL} queries from {program}")


def index_program(out: Outcome, source: Path, name: str, store: Path, work: Path):
    """``repro index --force`` one program and check its digest; returns
    the child run and the loaded store (None on failure)."""
    from repro.query import StoreError, load_store

    run = run_child(
        repro_argv("index", str(source), "-o", str(store), "--force", "--name", name),
        work / f"{name}.index.err",
    )
    loaded = None
    if run.returncode == 0:
        try:
            loaded = load_store(str(store))
        except (OSError, StoreError):
            loaded = None
        if loaded and loaded["snapshot"]["digest"]["program"] != load_expected_digests()[name]:
            loaded = None
    out.check(loaded is not None,
              f"index {name}: exit {run.returncode}, digest mismatch or error\n"
              f"{run.stderr[-2000:]}")
    return run, loaded


def cold_import_seconds(work: Path, runs: int = SETUP_RUNS) -> list[float]:
    argv = [PYTHON, "-c", "import repro.cli"]
    run_child(argv, work / "import.err")  # writes bytecode caches
    return [run_child(argv, work / "import.err").seconds for _ in range(runs)]


# ---------------------------------------------------------------------------
# cli-small and index-large: one-shot CLI processes
# ---------------------------------------------------------------------------


def run_cli(workload: str, programs: list[str], seed: int, seconds: float, work: Path) -> Outcome:
    out = Outcome(workload)
    out.traced_programs = list(programs)
    out.serve_program = programs[-1]
    setup = cold_import_seconds(work)
    index_s: dict[str, list[float]] = {p: [] for p in programs}
    query_s: dict[str, list[float]] = {p: [] for p in programs}
    queries: dict[str, tuple[list[str], list[str]]] = {}
    peak_kb = 0
    started = time.perf_counter()
    rounds = 0
    # whole first round, then stop at the first program boundary past
    # the window, so every program has a sample
    while rounds == 0 or time.perf_counter() - started < seconds:
        for p in programs:
            if rounds and time.perf_counter() - started >= seconds:
                break
            store = work / f"{p}.store.json"
            run, loaded = index_program(out, PROGRAMS / f"{p}.c", p, store, work)
            index_s[p].append(run.seconds)
            peak_kb = max(peak_kb, run.maxrss_kb)
            if loaded is not None and p not in queries:
                queries[p] = draw_queries(loaded, p, seed)
            if p in queries:
                specs, expected = queries[p]
                answers = work / f"{p}.answers.json"
                q = run_child(
                    repro_argv("query", str(store), *specs, "--json", "-o", str(answers)),
                    work / f"{p}.query.err",
                )
                query_s[p].append(q.seconds)
                peak_kb = max(peak_kb, q.maxrss_kb)
                got = []
                if q.returncode == 0:
                    got = [json.dumps(a, sort_keys=True)
                           for a in json.loads(answers.read_text())]
                out.check(got == expected,
                          f"query {p}: exit {q.returncode}, answers differ\n"
                          f"{q.stderr[-2000:]}")
        rounds += 1
    means_index = {p: fmean(v) for p, v in index_s.items() if v}
    means_query = {p: fmean(v) for p, v in query_s.items() if v}
    out.index_seconds = means_index
    out.metrics = {
        "setup_s": median(setup),
        "op_ms": geomean(means_index.values()) * 1e3,
        "query_ms": geomean(means_query.values()) * 1e3 if means_query else 0.0,
        "peak_rss_mb": peak_kb / 1024,
    }
    out.samples = {
        "setup_s": len(setup),
        "op_ms": sum(map(len, index_s.values())),
        "query_ms": sum(map(len, query_s.values())),
    }
    return out


# ---------------------------------------------------------------------------
# serve-read and serve-edit: one daemon, load from this process
# ---------------------------------------------------------------------------


def _serve_setup(out: Outcome, program: str, work: Path):
    """Index a scratch copy of ``program``, so that edits never touch
    the repository's sources."""
    src_dir = work / "src"
    src_dir.mkdir(exist_ok=True)
    source = src_dir / f"{program}.c"
    shutil.copyfile(PROGRAMS / f"{program}.c", source)
    store_path = work / f"{program}.store.json"
    run, store = index_program(out, source, program, store_path, work)
    out.traced_programs = [program]
    out.serve_program = program
    out.index_seconds = {program: run.seconds}
    return source, store_path, store


def serve_reads(out: Outcome, store_path: Path, store: dict, seed: int,
                closed_s: float, open_s: float, work: Path,
                spawns: int = SETUP_RUNS) -> dict:
    """Spawn the daemon (set-up), then phase A (closed loop on two
    connections) and phase B (open loop at a fixed rate)."""
    reads = serve.ReadSet(store, READ_REQUESTS, seed)
    spawn_s, daemon = serve.start_daemons(store_path, work, spawns)
    try:
        client = serve.Client(daemon.addr)
        try:
            a = serve.closed_loop(client, reads, closed_s)
            view_a = serve.server_view(client)
            b = serve.open_loop(client, reads, OPEN_LOOP_RATE, open_s)
            view_b = serve.server_view(client)
        finally:
            client.close()
        rss = daemon.peak_rss_mb()
    finally:
        code = daemon.stop()
    out.check(code == 0, f"daemon exit {code}")
    bad = reads.mismatches()
    out.count(a["attempted"] + b["attempted"], bad,
              f"{bad} served answers wrong or not ok")
    lookups = view_b["cache_hits"] + view_b["cache_misses"]
    out.layers.update({
        "serve.read_qps": a["qps"],
        "serve.read_tail_ms": b["tail_ms"],
        "serve.cache_hit_rate": view_b["cache_hits"] / lookups,
        "serve.cache_lookups": lookups,
        "serve.server_p50_ms": view_a["server_p50_ms"],
        "serve.server_p99_ms": view_a["server_p99_ms"],
        "serve.transport_p50_ms": a["p50_ms"] - view_a["server_p50_ms"],
        "loadgen.late_p99_ms": b["late_p99_ms"],
        "loadgen.late_max_ms": b["late_max_ms"],
    })
    return {"spawn_s": spawn_s, "closed": a, "open": b, "rss_mb": rss}


class EditedReference:
    """Reference answers for reads beside edits: what a fresh exhaustive
    index of the source under edit *m* answers.

    An edit adds locals to one procedure, but inside a recursive cycle
    that can still reshape the cycle's contexts (an edit in compiler's
    ``gen_expr`` changes ``modref gen_binop``), so a read answered after
    an edit may rightly differ from the pristine answer. Indexes are
    built only for answers that differ, after the daemon has stopped,
    in the source file the store names, which is restored afterwards.
    """

    def __init__(self, source: Path, pristine: str, procs: list[str], store: dict) -> None:
        self.source = source
        self.pristine = pristine
        self.procs = procs
        self.store = store
        self.engines: dict = {}

    def __call__(self, m: int, request: dict):
        from repro.query import QueryError

        if not 1 <= m <= len(self.procs):
            return None
        if m not in self.engines:
            self.engines[m] = self._index(m)
        try:
            return json.dumps(self.engines[m].query(dict(request)), sort_keys=True)
        except QueryError:
            return None

    def _index(self, m: int):
        from repro.analysis.demand import fresh_analysis_state, options_from_store
        from repro.analysis.results import run_analysis
        from repro.frontend.parser import load_project_files
        from repro.query import QueryEngine, build_store

        name = self.store["program"]
        serve.replace_atomically(
            self.source, apply_edit(self.pristine, self.procs[m - 1], m)
        )
        try:
            fresh_analysis_state()
            options = options_from_store(self.store)
            program = load_project_files([str(self.source)], name=name)
            store = build_store(
                run_analysis(program, options), options=options,
                program_name=name, sources=[str(self.source)],
            )
        finally:
            serve.replace_atomically(self.source, self.pristine)
        return QueryEngine(store, cache_size=0)


def serve_edits(out: Outcome, source: Path, store_path: Path, store: dict,
                seed: int, edits: int, work: Path,
                spawns: int = SETUP_RUNS) -> dict:
    """Spawn the daemon (set-up), make one untimed warm-up edit, then
    ``edits`` seeded edits one interval apart with reads beside them."""
    pristine = source.read_text()
    warm, *procs = edit_sequence(
        eligible_procedures(pristine, store["call_graph"]), edits + 1, seed
    )
    reads = serve.ReadSet(store, READ_REQUESTS, seed)
    spawn_s, daemon = serve.start_daemons(store_path, work, spawns)
    try:
        client = serve.Client(daemon.addr)
        try:
            out.check(serve.warm_up_edit(client, source, pristine, warm, reads),
                      f"warm-up edit in {warm} not answered fresh, or not undone")
            e = serve.edit_loop(
                client, source, pristine, procs, reads,
                EDIT_INTERVAL_S, EDIT_READ_RATE,
            )
        finally:
            client.close()
        rss = daemon.peak_rss_mb()
    finally:
        code = daemon.stop()
    out.check(code == 0, f"daemon exit {code}")
    out.count(e["edits"], e["timeouts"],
              f"{e['timeouts']} edits never answered fresh")
    bad = reads.mismatches(EditedReference(source, pristine, procs, store))
    out.count(e["reads"], bad, f"{bad} reads beside edits wrong or not ok")
    out.layers.update({
        "serve.fresh_attempts": sum(e["attempts"]) / max(1, len(e["attempts"])),
        "serve.edit_read_tail_ms": e["read_tail_ms"],
        "serve.edit_read_max_ms": e["read_max_ms"],
        "query.invalidate.stale_procs": median(e["stale_procs"]) if e["stale_procs"] else 0,
    })
    return {"spawn_s": spawn_s, "edit": e, "rss_mb": rss}


def run_serve_read(seed: int, seconds: float, work: Path) -> Outcome:
    out = Outcome("serve-read")
    _, store_path, store = _serve_setup(out, "interp", work)
    if store is None:
        return out
    r = serve_reads(out, store_path, store, seed, seconds / 2, seconds / 2, work)
    out.metrics = {
        "setup_s": median(r["spawn_s"]),
        "op_ms": r["open"]["p50_ms"],
        "query_ms": r["closed"]["p50_ms"],
        "peak_rss_mb": r["rss_mb"],
    }
    out.samples = {
        "setup_s": len(r["spawn_s"]),
        "op_ms": r["open"]["samples"],
        "query_ms": r["closed"]["samples"],
    }
    return out


def run_serve_edit(seed: int, seconds: float, work: Path) -> Outcome:
    out = Outcome("serve-edit")
    source, store_path, store = _serve_setup(out, "compiler", work)
    if store is None:
        return out
    edits = max(1, int(seconds / EDIT_INTERVAL_S))
    r = serve_edits(out, source, store_path, store, seed, edits, work)
    e = r["edit"]
    out.metrics = {
        "setup_s": median(r["spawn_s"]),
        "op_ms": fmean(e["fresh_ms"]) if e["fresh_ms"] else 0.0,
        "query_ms": e["read_p50_ms"],
        "peak_rss_mb": r["rss_mb"],
    }
    out.samples = {
        "setup_s": len(r["spawn_s"]),
        "op_ms": len(e["fresh_ms"]),
        "query_ms": e["reads"],
    }
    return out


WORKLOADS = {
    "cli-small": lambda seed, seconds, work: run_cli("cli-small", SMALL, seed, seconds, work),
    "index-large": lambda seed, seconds, work: run_cli("index-large", LARGE, seed, seconds, work),
    "serve-read": run_serve_read,
    "serve-edit": run_serve_edit,
}
