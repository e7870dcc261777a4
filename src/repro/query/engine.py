"""Demand-driven query API over a persisted analysis store.

Where :class:`~repro.analysis.results.AnalysisResult` answers questions
about a live analyzer, this engine answers the same questions from the
on-disk store (:mod:`repro.query.store`) — no parsing, no lowering, no
fixpoint.  The exhaustive-vs-demand tradeoff is the classic one: the
exhaustive analysis ran once at ``repro index`` time; every question
after that is a dict probe plus a little overlap arithmetic.

Operations (the ``op`` field of a request, and the query grammar the
CLI/daemon parse — see :func:`parse_query_spec`):

``points_to``      targets of ``var`` at the exit of ``proc``
``alias``          may/no verdict for two variables, with the witness
                   location-set overlap (the pair of stored facts whose
                   byte ranges intersect, per PTF — verdicts agree with
                   ``AnalysisResult.may_alias`` by construction)
``pointed_by``     reverse index: which ``(proc, var)`` may point at a
                   named block
``modref``         caller-visible MOD/REF sets of a procedure, or of a
                   call site (``proc:line`` — the union over the site's
                   resolved callees)
``reaches``        call-graph reachability, with a shortest witness path
``callees`` / ``callers``   one-step call-graph neighbourhoods
``stats``          engine counters (queries, LRU hit rate)

Every answer that names a points-to fact carries a ready-made ``repro
explain`` invocation (``answer["explain"]``) reconstructing the
provenance chain from the indexed sources — the store persists *what*
holds; ``repro explain`` re-derives *why*.

Caching: a bounded LRU keyed by the canonical request.  The engine
counts queries, hits and misses in its own :class:`QueryCounters`
(shared with the engine that replaces it on a daemon ``reload``; the
hit rate goes through the one :func:`~repro.ratio.safe_ratio` guard)
and, when a tracer is attached, each probe emits a ``query.hit`` /
``query.miss`` instant.  The engine is thread-safe (one lock around
probe+compute) — the daemon serves concurrent clients through a single
engine so they share the cache.

Deadlines: pass an armed :class:`repro.analysis.guards.AnalysisBudget`
to :meth:`QueryEngine.query` and the engine raises
:class:`~repro.analysis.guards.GuardTripped` (reason ``deadline``) when
the budget expires — the same exception, and the same structured
reason strings, as the analysis engine's degradation ladder.  The engine
takes the exception from its import-free home
(:mod:`repro.analysis.tripped`) and the overlap test from
:mod:`repro.ranges`, so answering a query loads neither the guards
module nor the memory model.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from ..analysis.tripped import GuardTripped
from ..ranges import WORD_SIZE, ranges_overlap_mod
from ..ratio import safe_ratio
from .store import STORE_FORMAT

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.guards import AnalysisBudget

__all__ = ["QueryEngine", "QueryCounters", "QueryError", "parse_query_spec", "OPS"]

#: the closed operation vocabulary (requests with any other ``op`` are
#: rejected with a ``bad-request`` error envelope)
OPS = (
    "points_to",
    "alias",
    "pointed_by",
    "modref",
    "reaches",
    "callees",
    "callers",
    "stats",
)


class QueryError(Exception):
    """A query that cannot be answered.

    ``code`` is a stable machine-readable string (``bad-request``,
    ``unknown-proc``, ``unknown-var``, ``unknown-site``); the CLI and
    daemon map every ``QueryError`` to the hard-error class (exit/status
    2) of the 0/2/4 convention.
    """

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(message)


def _split_at(text: str, default_proc: str = "main") -> tuple[str, str]:
    """``NAME[@PROC]`` -> ``(name, proc)`` — the ``repro explain``
    convention."""
    name, _, proc = text.partition("@")
    return name.strip(), (proc.strip() or default_proc)


def parse_query_spec(spec: str) -> dict:
    """Parse one textual query into a request dict.

    Grammar (one query per argument; ``PROC`` defaults to ``main``)::

        points-to VAR[@PROC]
        alias A B[@PROC]          (or  alias A,B[@PROC])
        pointed-by NAME
        modref PROC
        modref PROC:LINE          (call-site form)
        reaches SRC DST
        callees PROC
        callers PROC
        stats
    """
    words = spec.replace(",", " ").split()
    if not words:
        raise QueryError("bad-request", "empty query")
    op = words[0].replace("-", "_")
    args = words[1:]
    if op == "points_to":
        if len(args) != 1:
            raise QueryError("bad-request", f"points-to takes one VAR[@PROC]: {spec!r}")
        var, proc = _split_at(args[0])
        return {"op": "points_to", "var": var, "proc": proc}
    if op == "alias":
        if len(args) != 2:
            raise QueryError("bad-request", f"alias takes two variables: {spec!r}")
        a, proc_a = _split_at(args[0])
        b, proc_b = _split_at(args[1], default_proc=proc_a)
        if proc_a != "main" and proc_b == "main":
            proc_b = proc_a
        return {"op": "alias", "a": a, "b": b, "proc": proc_b}
    if op == "pointed_by":
        if len(args) != 1:
            raise QueryError("bad-request", f"pointed-by takes one NAME: {spec!r}")
        return {"op": "pointed_by", "name": args[0]}
    if op == "modref":
        if len(args) != 1:
            raise QueryError("bad-request", f"modref takes PROC or PROC:LINE: {spec!r}")
        target, _, line = args[0].rpartition(":")
        if target and line.isdigit():
            return {"op": "modref", "proc": target, "line": int(line)}
        return {"op": "modref", "proc": args[0]}
    if op == "reaches":
        if len(args) != 2:
            raise QueryError("bad-request", f"reaches takes SRC DST: {spec!r}")
        return {"op": "reaches", "src": args[0], "dst": args[1]}
    if op in ("callees", "callers"):
        if len(args) != 1:
            raise QueryError("bad-request", f"{op} takes one PROC: {spec!r}")
        return {"op": op, "proc": args[0]}
    if op == "stats":
        return {"op": "stats"}
    raise QueryError("bad-request", f"unknown operation {words[0]!r} in {spec!r}")


class QueryCounters:
    """Queries answered and LRU probes that hit or missed.  A daemon
    passes its engine's counters to the engine a ``reload`` swaps in, so
    they accumulate across store generations."""

    __slots__ = ("queries", "cache_hits", "cache_misses")

    def __init__(self) -> None:
        self.queries = self.cache_hits = self.cache_misses = 0

    def hit_rate(self) -> Optional[float]:
        """Fraction of LRU probes that hit; ``None`` before the first."""
        return safe_ratio(self.cache_hits, self.cache_hits + self.cache_misses)


class QueryEngine:
    """Answers demand queries against one loaded store document."""

    def __init__(
        self,
        store: dict,
        counters: Optional[QueryCounters] = None,
        tracer=None,
        cache_size: int = 256,
        demand=None,
    ) -> None:
        if store.get("format") != STORE_FORMAT:
            raise ValueError(
                f"unsupported store format {store.get('format')!r} "
                f"(expected {STORE_FORMAT!r})"
            )
        self.store = store
        self.counters = counters if counters is not None else QueryCounters()
        self.trace = tracer
        #: optional :class:`repro.analysis.demand.DemandTier` — probed on
        #: every query; stale facts are either answered from a fresh
        #: in-memory index of the edited sources (tier enabled) or
        #: annotated ``info["stale"]`` (disabled)
        self.demand = demand
        self.cache_size = max(0, cache_size)
        self._cache: OrderedDict[str, dict] = OrderedDict()
        #: key -> frozenset of procedures the cached answer depends on,
        #: or None for answers with program-wide structure dependencies
        #: (call graph, reverse index); drives the hot-swap carryover
        #: (:meth:`adopt_cache`)
        self._cache_deps: dict = {}
        self._lock = threading.Lock()
        self._index = store["index"]
        self._procs: dict = self._index["procedures"]
        self._call_graph: dict = store["call_graph"]
        self._sources = [rec["path"] for rec in store.get("sources", [])]

    # -- store facts -------------------------------------------------------

    @property
    def program(self) -> str:
        return self.store.get("program", "<program>")

    @property
    def degraded(self) -> bool:
        """Whether the store was built from a degraded (partial) run —
        answers are then *conservative*, and the daemon/CLI surface the
        partial-results class (status 4) of the 0/2/4 convention."""
        return not self.store["snapshot"]["degradation"]["ok"]

    def _proc(self, name: str) -> dict:
        rec = self._procs.get(name)
        if rec is None:
            raise QueryError("unknown-proc", f"no procedure named {name!r}")
        return rec

    def _check_var(self, proc_rec: dict, proc: str, var: str) -> None:
        known = proc_rec.get("queryable", ())
        if known and var not in known:
            raise QueryError(
                "unknown-var", f"no variable named {var!r} in {proc!r}"
            )

    def _explain_cmd(self, var: str, proc: str) -> str:
        files = " ".join(self._sources) if self._sources else "FILES"
        return f"repro explain {files} --query {var}@{proc}"

    # -- caching -----------------------------------------------------------

    def _canonical_key(self, request: dict) -> str:
        return "\x1f".join(
            f"{k}={request[k]}" for k in sorted(request) if k != "id"
        )

    def _cached(self, request: dict, compute, info: Optional[dict] = None) -> dict:
        key = self._canonical_key(request)
        op = request.get("op", "?")
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            self.counters.cache_hits += 1
            if info is not None:
                info["cache"] = "hit"
            if self.trace is not None:
                self.trace.instant("query.hit", "query", op=op, key=key)
            return hit
        self.counters.cache_misses += 1
        if info is not None:
            info["cache"] = "miss"
        if self.trace is not None:
            self.trace.instant("query.miss", "query", op=op, key=key)
        answer = compute()
        if self.cache_size:
            self._cache[key] = answer
            self._cache_deps[key] = self._answer_deps(request, answer)
            while len(self._cache) > self.cache_size:
                evicted, _ = self._cache.popitem(last=False)
                self._cache_deps.pop(evicted, None)
        return answer

    @staticmethod
    def _answer_deps(request: dict, answer: dict):
        """The procedures a cached answer's bytes depend on, or None
        when the dependency is program-wide structure (the call graph
        for ``reaches``/``callees``/``callers``, the reverse index for
        ``pointed_by``) — those entries survive a hot swap only when
        the stores are digest-identical everywhere."""
        op = request.get("op")
        if op in ("points_to", "alias"):
            return frozenset((request.get("proc", "main"),))
        if op == "modref":
            if request.get("line") is None:
                return frozenset((request.get("proc", ""),))
            # a call-site answer folds in its resolved callees' sets;
            # unresolved callees count too (they may appear in the new
            # store as *added* procedures, which must invalidate)
            deps = {request.get("proc", "")}
            deps.update(answer.get("callees", ()))
            deps.update(answer.get("unresolved", ()))
            return frozenset(deps)
        return None

    def adopt_cache(self, old: "QueryEngine", report) -> tuple[int, int]:
        """Carry over the still-valid slice of another engine's LRU.

        ``report`` is the :class:`~repro.query.invalidate.StaleReport`
        between ``old.store`` and this engine's store.  An entry
        carries iff every procedure it depends on is *clean* (its IR
        digest, and therefore its indexed facts, did not move) — so a
        carried answer, while rendered from the old store, states facts
        the new store proves identical.  Structure-dependent entries
        (deps ``None``) carry only when the stores are fully
        digest-identical; a source-path change or a globals-digest move
        drops everything (answers embed ``repro explain`` command lines
        built from the source list).

        Returns ``(carried, dropped)``.  Thread-safe against concurrent
        queries on both engines.
        """
        with old._lock:
            items = list(old._cache.items())
            deps_map = dict(old._cache_deps)
        if not items:
            return (0, 0)
        if self.cache_size == 0:
            return (0, len(items))
        stale = set(report.stale) | set(report.removed)
        old_sources = [r.get("path") for r in old.store.get("sources", [])]
        new_sources = [r.get("path") for r in self.store.get("sources", [])]
        comparable = old_sources == new_sources and not report.globals_changed
        carried = dropped = 0
        with self._lock:
            for key, answer in items:
                deps = deps_map.get(key)
                if not comparable:
                    ok = False
                elif deps is None:
                    ok = report.up_to_date
                else:
                    ok = not (deps & stale)
                if ok:
                    self._cache[key] = answer
                    self._cache_deps[key] = deps
                    carried += 1
                else:
                    dropped += 1
            while len(self._cache) > self.cache_size:
                evicted, _ = self._cache.popitem(last=False)
                self._cache_deps.pop(evicted, None)
        return (carried, dropped)

    # -- dispatch ----------------------------------------------------------

    def query(
        self,
        request: dict,
        budget: Optional[AnalysisBudget] = None,
        info: Optional[dict] = None,
    ) -> dict:
        """Answer one request dict (see :data:`OPS`).

        Raises :class:`QueryError` for unanswerable requests and
        :class:`~repro.analysis.guards.GuardTripped` when ``budget``'s
        deadline expired.  Thread-safe; answers are shared cache entries
        and must be treated as immutable by callers.

        ``info``, when given, is filled in-place with per-call facts the
        answer itself must not carry (answers are shared cache entries,
        byte-identical across calls): ``info["cache"]`` is set to
        ``"hit"`` or ``"miss"`` for cacheable ops; when a demand tier is
        attached, ``info["mode"] = "demand"`` marks answers from a fresh
        index of the edited sources and ``info["stale"] = True`` marks
        answers served from a store known-stale for the facts they
        state — the daemon lifts both into the response envelope.
        """
        op = request.get("op")
        if op not in OPS:
            raise QueryError("bad-request", f"unknown op {op!r}")
        if budget is not None and budget.deadline_exceeded():
            if self.trace is not None:
                self.trace.instant(
                    "query.deadline", "query", op=op, key=self._canonical_key(request)
                )
            raise GuardTripped("deadline", proc="<query>", detail=str(op))
        with self._lock:
            self.counters.queries += 1
            if op == "stats":  # never cached: reports the live counters
                return self.stats()
            if self.demand is not None:
                route = self.demand.route(request, self)
                if route == "demand":
                    # bypass this engine's LRU entirely: the tier's
                    # engine answers (and caches) from its own fresh
                    # index, so a later reload's adopt_cache never
                    # sees a demand answer under a store-keyed entry
                    return self.demand.answer(request, budget=budget, info=info)
                if route == "stale" and info is not None:
                    info["stale"] = True
            return self._cached(
                request, lambda: self._compute(op, request), info=info
            )

    def _compute(self, op: str, request: dict) -> dict:
        if op == "points_to":
            return self.points_to(request.get("var", ""), request.get("proc", "main"))
        if op == "alias":
            return self.alias(
                request.get("a", ""), request.get("b", ""), request.get("proc", "main")
            )
        if op == "pointed_by":
            return self.pointed_by(request.get("name", ""))
        if op == "modref":
            if request.get("line") is not None:
                return self.modref_callsite(
                    request.get("proc", ""), int(request["line"])
                )
            return self.modref(request.get("proc", ""))
        if op == "reaches":
            return self.reaches(request.get("src", ""), request.get("dst", ""))
        if op == "callees":
            return self.callees(request.get("proc", ""))
        return self.callers(request.get("proc", ""))

    # -- operations --------------------------------------------------------

    def points_to(self, var: str, proc: str = "main") -> dict:
        rec = self._proc(proc)
        self._check_var(rec, proc, var)
        entry = rec["vars"].get(var, {"targets": [], "locs": []})
        return {
            "op": "points_to",
            "proc": proc,
            "var": var,
            "targets": list(entry["targets"]),
            "locs": [list(loc) for loc in entry["locs"]],
            "explain": self._explain_cmd(var, proc),
        }

    def alias(self, a: str, b: str, proc: str = "main") -> dict:
        rec = self._proc(proc)
        self._check_var(rec, proc, a)
        self._check_var(rec, proc, b)
        table = rec["alias"]
        rows_a = {row["ptf"]: row["locs"] for row in table.get(a, ())}
        witness = None
        for row in table.get(b, ()):
            locs_a = rows_a.get(row["ptf"])
            if not locs_a:
                continue
            for key_a, off_a, stride_a in locs_a:
                for key_b, off_b, stride_b in row["locs"]:
                    if key_a != key_b:
                        continue
                    if ranges_overlap_mod(
                        off_a, stride_a, WORD_SIZE, off_b, stride_b, WORD_SIZE
                    ):
                        witness = {
                            "ptf": row["ptf"],
                            "block": key_a,
                            "a": [key_a, off_a, stride_a],
                            "b": [key_b, off_b, stride_b],
                        }
                        break
                if witness:
                    break
            if witness:
                break
        return {
            "op": "alias",
            "proc": proc,
            "a": a,
            "b": b,
            "verdict": "may" if witness else "no",
            "witness": witness,
            "explain": [self._explain_cmd(a, proc), self._explain_cmd(b, proc)],
        }

    def pointed_by(self, name: str) -> dict:
        pairs = self._index["pointed_by"].get(name, [])
        return {
            "op": "pointed_by",
            "name": name,
            "pointers": [list(p) for p in pairs],
            "explain": [
                self._explain_cmd(var, proc) for proc, var in pairs
            ],
        }

    def modref(self, proc: str) -> dict:
        rec = self._proc(proc)
        modref = rec["modref"]
        return {
            "op": "modref",
            "proc": proc,
            "mod": modref["mod"],
            "ref": modref["ref"],
            "pure": rec["pure"],
            "explain": self._explain_cmd("<mod>", proc),
        }

    def modref_callsite(self, proc: str, line: int) -> dict:
        """MOD/REF of a call site — the union over its resolved callees'
        procedure-level sets.  Callees outside the store (externals,
        libc) are listed as ``unresolved``: their effects are whatever
        the analysis's external policy assumed."""
        if proc not in self._procs:
            raise QueryError("unknown-proc", f"no procedure named {proc!r}")
        sites = [
            site
            for site in self._index["callsites"]
            if site["proc"] == proc and _coord_line(site["coord"]) == line
        ]
        if not sites:
            raise QueryError(
                "unknown-site", f"no call site at {proc}:{line} in the store"
            )
        mod: dict = {}
        ref: dict = {}
        unresolved: set = set()
        callees: set = set()
        for site in sites:
            for callee in site["callees"]:
                callees.add(callee)
                target = self._procs.get(callee)
                if target is None:
                    unresolved.add(callee)
                    continue
                for bucket, src in ((mod, target["modref"]["mod"]),
                                    (ref, target["modref"]["ref"])):
                    for name, detail in src.items():
                        rec = bucket.setdefault(
                            name, {"kind": detail["kind"], "locs": set()}
                        )
                        rec["locs"].update(detail["locs"])
        for bucket in (mod, ref):
            for detail in bucket.values():
                detail["locs"] = sorted(detail["locs"])
        return {
            "op": "modref",
            "proc": proc,
            "line": line,
            "sites": [dict(site) for site in sites],
            "callees": sorted(callees),
            "unresolved": sorted(unresolved),
            "mod": {k: mod[k] for k in sorted(mod)},
            "ref": {k: ref[k] for k in sorted(ref)},
            "explain": self._explain_cmd("<mod>", proc),
        }

    def reaches(self, src: str, dst: str) -> dict:
        if src not in self._call_graph:
            raise QueryError("unknown-proc", f"no procedure named {src!r}")
        path = self._shortest_path(src, dst)
        return {
            "op": "reaches",
            "src": src,
            "dst": dst,
            "reachable": path is not None,
            "path": path or [],
        }

    def callees(self, proc: str) -> dict:
        graph = self._call_graph
        if proc not in graph:
            raise QueryError("unknown-proc", f"no procedure named {proc!r}")
        return {
            "op": "callees",
            "proc": proc,
            "callees": sorted(graph.get(proc, ())),
        }

    def callers(self, proc: str) -> dict:
        graph = self._call_graph
        known = set(graph) | {
            c for callees in graph.values() for c in callees
        }
        if proc not in known:
            raise QueryError("unknown-proc", f"no procedure named {proc!r}")
        return {
            "op": "callers",
            "proc": proc,
            "callers": sorted(
                caller
                for caller, callees in graph.items()
                if proc in callees
            ),
        }

    def stats(self) -> dict:
        """Live engine counters; never cached."""
        c = self.counters
        out = {
            "op": "stats",
            "program": self.program,
            "queries": c.queries,
            "cache_hits": c.cache_hits,
            "cache_misses": c.cache_misses,
            "cache_hit_rate": c.hit_rate(),
            "cache_entries": len(self._cache),
            "degraded": self.degraded,
        }
        if self.demand is not None:
            out["demand"] = self.demand.stats()
        return out

    # -- helpers -----------------------------------------------------------

    def _shortest_path(self, src: str, dst: str) -> Optional[list]:
        graph = self._call_graph
        if src == dst:
            return [src]
        prev: dict = {src: None}
        frontier = [src]
        while frontier:
            nxt = []
            for name in frontier:
                for callee in sorted(graph.get(name, ())):
                    if callee in prev:
                        continue
                    prev[callee] = name
                    if callee == dst:
                        path = [callee]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return list(reversed(path))
                    nxt.append(callee)
            frontier = nxt
        return None


def _coord_line(coord: str) -> Optional[int]:
    """The line number of a ``file:line:col`` coordinate (None when the
    coordinate is missing or malformed)."""
    parts = coord.rsplit(":", 2)
    if len(parts) >= 2:
        try:
            return int(parts[-2])
        except ValueError:
            return None
    return None
