"""Demand-driven analysis: query-rooted points-to without re-indexing.

The exhaustive pipeline (``repro index`` -> store -> ``repro query``)
answers every question from facts computed once, up front.  Its blind
spot is the edit loop: one changed line makes the store stale for the
changed procedure and all its transitive callers, and until a full
re-index runs the daemon either refuses or silently serves outdated
facts.  This module closes that gap with the *demand* mode the paper's
top-down PTF scheme naturally supports (and the Lazy Pointer Analysis /
GPG line of work makes explicit): a query needs only the PTFs on its
demand slice — callees for summaries, callers for invocation contexts.

Three layers:

:class:`DemandSlice` / :func:`compute_demand_slice`
    The slice over the *static* call graph, computed on the SCC
    condensation from :mod:`repro.analysis.scc`.  Because the analyzer
    is rooted at the entry procedure (``main``, §2.3), the set of
    procedures any sound answer can require is the entry shard's
    forward closure; a target outside that closure is never analyzed —
    by the exhaustive run either — so its answers are the empty facts,
    no analysis needed (the *unreachable fast path*).

:class:`DemandAnalysis` / :class:`DemandEngine`
    A lazily-run analysis plus a :class:`~repro.query.engine.QueryEngine`
    subclass that materializes per-procedure index records from it on
    first touch, through the *same* record builders
    (:func:`repro.query.store.procedure_record`) the indexer uses —
    which is what makes demand answers byte-identical to what a fresh
    ``repro index`` + store query would produce.  PTFs are memoized
    across queries at two levels: the analysis result itself (one
    fixpoint per source generation) and the engine's answer LRU.

:class:`DemandTier`
    The staleness-aware fallback wired into ``QueryEngine.query``:
    it probes the indexed sources (stat signature -> content hash ->
    :func:`repro.query.invalidate.compute_stale`), and when the stored
    fact a query depends on is stale, either answers from a fresh
    demand analysis (``mode: demand``) or — when disabled with
    ``--no-demand`` — lets the store answer through annotated
    ``stale: true``.  Probe state is memoized per source content, so a
    live daemon pays one lowering + one slice analysis per edit, then
    answers subsequent queries from cache.

Byte-identity has one process-level precondition: PTF uids (which the
stored alias tables embed) and memory-block uids are allocated from
process-global counters.  :func:`fresh_analysis_state` restarts both,
and the tier calls it before every re-lowering; this is safe because
location sets compare their base blocks by object identity, never by
uid, so objects from different analysis generations cannot be confused
(see :mod:`repro.memory.locset`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..query.engine import QueryEngine
from ..query.store import STORE_FORMAT, pointed_by_index, procedure_record

if TYPE_CHECKING:
    from .results import AnalysisResult

__all__ = [
    "DemandAnalysis",
    "DemandEngine",
    "DemandSlice",
    "DemandTier",
    "compute_demand_slice",
    "demand_call_graph",
    "fresh_analysis_state",
    "options_from_store",
]


def fresh_analysis_state() -> None:
    """Restart the process-global uid counters a stored fact embeds.

    Must run *before* lowering the program it protects (lowering
    allocates memory blocks).  Never call it between analyses that
    share memory blocks or PTFs; across generations it is safe because
    block identity is object identity everywhere facts are compared.
    """
    from ..memory.pointsto import reset_interning
    from .ptf import reset_ptf_counter

    reset_interning()
    reset_ptf_counter()


def options_from_store(store: dict):
    """Reconstruct :class:`~repro.analysis.engine.AnalyzerOptions` from
    a store's recorded non-default option fields — the demand analysis
    must run under the same budgets/policies the store was built with,
    or its facts could legitimately differ."""
    from .engine import AnalyzerOptions

    recorded = store.get("options") or {}
    known = {f.name for f in dataclasses.fields(AnalyzerOptions)}
    return AnalyzerOptions(
        **{k: v for k, v in recorded.items() if k in known}
    )


# ---------------------------------------------------------------------------
# demand slices over the SCC condensation
# ---------------------------------------------------------------------------


def demand_call_graph(program) -> dict:
    """:func:`static_call_graph` widened for external higher-order calls.

    The libc models invoke their callback arguments (qsort, bsearch,
    atexit, signal), so a procedure whose address escapes can be
    analyzed even though no *internal* call site names it — which the
    static graph, internal-edges-only, cannot see.  Any call that can
    reach an external therefore gets edges to every address-taken
    procedure.  Over-approximating reachability here is safe: a
    "reachable" procedure the fixpoint never actually visits has no
    PTFs, and its records are the same empty facts the exhaustive store
    records for it.
    """
    from .guards import _direct_targets
    from .scc import address_taken_procs, static_call_graph

    graph = static_call_graph(program)
    taken = address_taken_procs(program)
    internal = set(program.procedures)
    for name, proc in program.procedures.items():
        for node in proc.call_nodes():
            direct = _direct_targets(node)
            if direct and direct - internal:
                graph[name] = graph[name] | taken
                break
    return graph


@dataclass(frozen=True)
class DemandSlice:
    """The procedures a query rooted at ``target`` can depend on.

    ``procs`` is the analysis slice: the forward closure of the entry
    shard on the SCC condensation — exactly the set the top-down
    analyzer evaluates, and therefore the set whose PTFs the answer is
    built from.  ``context_procs`` is the subset that supplies the
    target's invocation contexts (its transitive callers within the
    slice).  ``reachable`` is False when the target lies outside the
    entry's closure: no context ever invokes it, the exhaustive run
    never analyzes it, and its demand answers are the empty facts.
    """

    target: str
    entry: str
    reachable: bool
    procs: tuple
    context_procs: tuple
    shards: int
    waves: int


def compute_demand_slice(
    program, target: str, entry: str = "main", plan=None
) -> DemandSlice:
    """Compute the demand slice for ``target`` on the static call graph.

    ``plan`` is an optional precomputed :class:`~repro.analysis.scc.ShardPlan`
    for the program's :func:`demand_call_graph` (callers repeating
    queries should build it once).  That graph over-approximates the
    analysis-resolved one — indirect calls and external higher-order
    calls widen to every address-taken procedure — so "unreachable
    here" implies "never analyzed".
    """
    if plan is None:
        from .scc import build_plan

        plan = build_plan(demand_call_graph(program))
    shard_of: dict[str, int] = {}
    for i, shard in enumerate(plan.shards):
        for name in shard.procs:
            shard_of[name] = i
    if entry not in shard_of or target not in shard_of:
        return DemandSlice(
            target=target, entry=entry, reachable=False,
            procs=(), context_procs=(), shards=0, waves=0,
        )
    # forward closure of the entry shard (deps point caller -> callee)
    closure = {shard_of[entry]}
    frontier = [shard_of[entry]]
    while frontier:
        nxt = []
        for i in frontier:
            for dep in plan.deps.get(i, ()):
                if dep not in closure:
                    closure.add(dep)
                    nxt.append(dep)
        frontier = nxt
    if shard_of[target] not in closure:
        return DemandSlice(
            target=target, entry=entry, reachable=False,
            procs=(), context_procs=(), shards=0, waves=0,
        )
    procs = sorted(
        name for i in closure for name in plan.shards[i].procs
    )
    # context shards: ancestors of the target within the closure
    rdeps: dict[int, set] = {}
    for i, deps in plan.deps.items():
        for dep in deps:
            rdeps.setdefault(dep, set()).add(i)
    contexts = {shard_of[target]}
    frontier = [shard_of[target]]
    while frontier:
        nxt = []
        for i in frontier:
            for caller in rdeps.get(i, ()):
                if caller in closure and caller not in contexts:
                    contexts.add(caller)
                    nxt.append(caller)
        frontier = nxt
    context_procs = sorted(
        name for i in contexts for name in plan.shards[i].procs
    )
    waves = sum(
        1 for wave in plan.waves if any(i in closure for i in wave)
    )
    return DemandSlice(
        target=target,
        entry=entry,
        reachable=True,
        procs=tuple(procs),
        context_procs=tuple(context_procs),
        shards=len(closure),
        waves=waves,
    )


# ---------------------------------------------------------------------------
# lazily-run analysis + record materialization
# ---------------------------------------------------------------------------


class DemandAnalysis:
    """One program, analyzed at most once, with per-procedure index
    records materialized on demand.

    The unreachable fast path never runs the fixpoint: a target outside
    the entry closure gets its records from a *null result* (an
    un-run analyzer wrapped in :class:`AnalysisResult` — empty PTF
    tables, exactly what the exhaustive run records for procedures it
    never reached).  Thread-safe; all laziness is guarded by one
    re-entrant lock.
    """

    def __init__(
        self, program, options=None, entry: str = "main", tracer=None
    ) -> None:
        self.program = program
        self.options = options
        self.entry = entry
        self.trace = tracer
        self._lock = threading.RLock()
        self._plan = None
        self._slices: dict[str, DemandSlice] = {}
        self._records: dict[str, dict] = {}
        self._result: Optional[AnalysisResult] = None
        self._null: Optional[AnalysisResult] = None
        self._pointed_by: Optional[dict] = None
        self._callsites: Optional[list] = None
        self._call_graph: Optional[dict] = None
        #: fixpoint runs (0 or 1 per generation) and their wall time
        self.analyses = 0
        self.analysis_seconds = 0.0

    # -- slices ------------------------------------------------------------

    def plan(self):
        with self._lock:
            if self._plan is None:
                from .scc import build_plan

                self._plan = build_plan(demand_call_graph(self.program))
            return self._plan

    def slice_for(self, target: str) -> DemandSlice:
        with self._lock:
            sl = self._slices.get(target)
            if sl is None:
                sl = compute_demand_slice(
                    self.program, target, entry=self.entry, plan=self.plan()
                )
                self._slices[target] = sl
                if self.trace is not None:
                    self.trace.instant(
                        "demand.slice",
                        "demand",
                        target=target,
                        entry=self.entry,
                        reachable=sl.reachable,
                        procs=len(sl.procs),
                        contexts=len(sl.context_procs),
                        shards=sl.shards,
                    )
            return sl

    def slice_sizes(self) -> dict:
        """target -> slice size, for every slice computed so far."""
        with self._lock:
            return {
                target: len(sl.procs)
                for target, sl in sorted(self._slices.items())
            }

    # -- results -----------------------------------------------------------

    def run_result(self) -> AnalysisResult:
        """The analyzed result (one fixpoint per generation, memoized)."""
        with self._lock:
            if self._result is None:
                from .results import run_analysis

                started = time.perf_counter()
                self._result = run_analysis(self.program, self.options)
                self.analysis_seconds += time.perf_counter() - started
                self.analyses += 1
                if self.trace is not None:
                    entry_slice = self.slice_for(self.entry)
                    self.trace.instant(
                        "demand.analyze",
                        "demand",
                        entry=self.entry,
                        procs=len(entry_slice.procs),
                        seconds=round(self.analysis_seconds, 6),
                    )
            return self._result

    def _null_result(self) -> AnalysisResult:
        """Empty facts without running anything: an un-run analyzer has
        no PTFs, and every fact accessor is empty-safe over that."""
        with self._lock:
            if self._null is None:
                from .engine import Analyzer
                from .results import AnalysisResult

                self._null = AnalysisResult(Analyzer(self.program, self.options))
            return self._null

    def _program_result(self) -> AnalysisResult:
        if self.entry in self.program.procedures:
            return self.run_result()
        return self._null_result()

    def degraded(self) -> bool:
        """True once an actually-run analysis degraded (guards tripped);
        an un-run analysis is not degraded — it is merely lazy."""
        with self._lock:
            if self._result is None:
                return False
            return not self._result.degradation.ok

    # -- index records -----------------------------------------------------

    def record(self, proc: str) -> dict:
        """The per-procedure index record, built through the same
        builder as ``repro index`` (:func:`procedure_record`)."""
        with self._lock:
            rec = self._records.get(proc)
            if rec is None:
                sl = self.slice_for(proc)
                result = self.run_result() if sl.reachable else self._null_result()
                rec = procedure_record(result, proc)
                self._records[proc] = rec
            return rec

    def pointed_by_table(self) -> dict:
        with self._lock:
            if self._pointed_by is None:
                procedures = {
                    name: self.record(name)
                    for name in sorted(self.program.procedures)
                }
                self._pointed_by = pointed_by_index(procedures)
            return self._pointed_by

    def callsite_table(self) -> list:
        with self._lock:
            if self._callsites is None:
                self._callsites = self._program_result().callsites()
            return self._callsites

    def call_graph_table(self) -> dict:
        with self._lock:
            if self._call_graph is None:
                self._call_graph = {
                    caller: sorted(callees)
                    for caller, callees in sorted(
                        self._program_result().call_graph().items()
                    )
                }
            return self._call_graph


class DemandEngine(QueryEngine):
    """A :class:`QueryEngine` whose index is a live demand analysis.

    It shares every code path that shapes an answer — dispatch,
    caching, alias arithmetic, explain-command rendering — with the
    store-backed engine, overriding only the accessor seams that read
    the index.  Records come from :meth:`DemandAnalysis.record`, so an
    answer's bytes equal what the same query against a freshly indexed
    store of the same sources would return.
    """

    def __init__(
        self,
        analysis: DemandAnalysis,
        sources: Optional[list] = None,
        metrics=None,
        tracer=None,
        cache_size: int = 256,
        program_name: Optional[str] = None,
    ) -> None:
        synthetic = {
            "format": STORE_FORMAT,
            "program": program_name or analysis.program.name,
            "sources": [{"path": str(p)} for p in (sources or [])],
            "snapshot": {"degradation": {"ok": True}},
            "call_graph": {},
            "ir": {},
            "index": {"procedures": {}, "pointed_by": {}, "callsites": []},
        }
        super().__init__(
            synthetic, metrics=metrics, tracer=tracer, cache_size=cache_size
        )
        self.analysis = analysis

    @property
    def degraded(self) -> bool:
        return self.analysis.degraded()

    def _proc_record_or_none(self, name: str) -> Optional[dict]:
        if name not in self.analysis.program.procedures:
            return None
        return self.analysis.record(name)

    def _has_proc(self, name: str) -> bool:
        return name in self.analysis.program.procedures

    def _pointed_by_table(self) -> dict:
        return self.analysis.pointed_by_table()

    def _callsite_table(self) -> list:
        return self.analysis.callsite_table()

    def _graph(self) -> dict:
        return self.analysis.call_graph_table()


# ---------------------------------------------------------------------------
# the fallback tier
# ---------------------------------------------------------------------------

#: ops whose answers depend on program-wide structure (the call graph
#: or the reverse points-to index): any staleness at all routes them
_PROGRAM_WIDE_OPS = frozenset(("pointed_by", "reaches", "callees", "callers"))


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class DemandTier:
    """Staleness probe + demand fallback for one store's sources.

    Attached to a :class:`QueryEngine` (its ``demand`` slot), consulted
    on every query under the engine lock.  ``route`` classifies the
    request: ``None`` (store fresh for this fact — serve normally),
    ``"stale"`` (serve the store answer annotated ``stale: true``), or
    ``"demand"`` (answer from the demand engine).  A tier with
    ``enabled=False`` still probes — that is what powers the honest
    ``stale: true`` annotation under ``--no-demand``.

    The probe is cheap by design: a stat signature guards a content
    hash guards a re-lowering.  Unchanged files cost ``len(sources)``
    stats per query; an edit costs one hash pass, one lowering, one
    :func:`compute_stale`, and (on the first routed query) one slice
    analysis — all memoized until the sources move again.  Stores
    without recorded sources (in-memory tests, ``--stdin`` pipelines)
    are never probed and never stale.

    Probe failures (vanished files, parse errors mid-edit) never break
    serving: the tier degrades to "everything stale, no demand engine",
    so the store keeps answering with ``stale: true`` until the sources
    parse again.
    """

    def __init__(
        self,
        store: dict,
        enabled: bool = True,
        options=None,
        entry: str = "main",
        tracer=None,
        cache_size: int = 256,
    ) -> None:
        self.store = store
        self.enabled = enabled
        self.entry = entry
        self.trace = tracer
        self.cache_size = cache_size
        # built from the store on the first refresh: a tier over
        # unchanged sources never needs the analyzer's options
        self.options = options
        records = store.get("sources") or []
        self.paths = [rec.get("path") for rec in records if rec.get("path")]
        self._stored_digests = tuple(rec.get("sha256") for rec in records)
        self._lock = threading.RLock()
        self._sig = None
        self._content = None
        self._verdict = "fresh"
        self._stale: frozenset = frozenset()
        self._globals_changed = False
        self._any_stale = False
        self._engine: Optional[DemandEngine] = None
        self._error: Optional[str] = None
        # cumulative counters (carried across reloads by :meth:`for_store`)
        self.fallbacks = 0
        self.stale_served = 0
        self.probes = 0

    # -- probing -----------------------------------------------------------

    def _signature(self):
        sig = []
        for path in self.paths:
            st = os.stat(path)
            sig.append((path, st.st_mtime_ns, st.st_size))
        return tuple(sig)

    def probe(self) -> str:
        """Re-check the sources; returns ``"fresh"`` or ``"stale"``
        (the error state reports as stale — the store provably no
        longer matches the sources)."""
        with self._lock:
            self.probes += 1
            if not self.paths:
                return "fresh"
            try:
                sig = self._signature()
            except OSError as exc:
                return self._enter_error(f"cannot stat sources: {exc}")
            if sig == self._sig:
                return self._verdict
            try:
                content = tuple(_sha256_file(path) for path in self.paths)
            except OSError as exc:
                return self._enter_error(f"cannot hash sources: {exc}")
            self._sig = sig
            if content == self._content:
                return self._verdict  # touched but not changed since last look
            self._content = content
            if content == self._stored_digests:
                # sources returned to the indexed content: store valid again
                self._verdict = "fresh"
                self._stale = frozenset()
                self._globals_changed = False
                self._any_stale = False
                self._engine = None
                self._error = None
                return self._verdict
            return self._refresh()

    def _refresh(self) -> str:
        """Sources changed: lower them, diff digests, arm the engine."""
        from ..frontend.parser import load_project_files
        from ..query.invalidate import compute_stale

        if self.options is None:
            self.options = options_from_store(self.store)
        fresh_analysis_state()
        try:
            program = load_project_files(
                list(self.paths), name=self.store.get("program", "<project>")
            )
        except Exception as exc:  # parse errors mid-edit must not kill serving
            return self._enter_error(f"sources no longer lower: {exc}")
        report = compute_stale(self.store, program)
        self._stale = frozenset(report.stale) | frozenset(report.removed)
        self._globals_changed = report.globals_changed
        self._any_stale = not report.up_to_date
        self._error = None
        self._verdict = "stale" if self._any_stale else "fresh"
        self._engine = DemandEngine(
            DemandAnalysis(
                program,
                options=self.options,
                entry=self.entry,
                tracer=self.trace,
            ),
            sources=self.paths,
            tracer=self.trace,
            cache_size=self.cache_size,
            program_name=self.store.get("program"),
        )
        if self.trace is not None:
            self.trace.instant(
                "demand.stale",
                "demand",
                stale=len(report.stale),
                changed=len(report.changed),
                added=len(report.added),
                removed=len(report.removed),
                globals_changed=report.globals_changed,
            )
        return self._verdict

    def _enter_error(self, message: str) -> str:
        stored = (self.store.get("ir") or {}).get("procedures") or {}
        self._stale = frozenset(stored)
        self._globals_changed = True
        self._any_stale = True
        self._engine = None
        self._error = message
        self._verdict = "stale"
        return self._verdict

    # -- routing -----------------------------------------------------------

    def route(self, request: dict, engine) -> Optional[str]:
        """Classify one request; must never raise (a broken probe must
        not take down store answers)."""
        try:
            verdict = self.probe()
        except Exception:
            return None
        if verdict == "fresh":
            return None
        op = request.get("op")
        if op in _PROGRAM_WIDE_OPS:
            affected = self._any_stale
        else:
            proc = request.get("proc", "main")
            affected = (
                self._globals_changed
                or proc in self._stale
                # a brand-new procedure is absent from the store's
                # tables entirely; stale covers added procs already,
                # but guard the direct probe too
                or (self._engine is not None and not engine._has_proc(proc)
                    and self._engine._has_proc(proc))
            )
        if not affected:
            return None
        if self.enabled and self._engine is not None:
            return "demand"
        with self._lock:
            self.stale_served += 1
        return "stale"

    def answer(self, request: dict, budget=None, info: Optional[dict] = None) -> dict:
        """Answer a routed request from the demand engine."""
        with self._lock:
            self.fallbacks += 1
            engine = self._engine
        if self.trace is not None:
            self.trace.instant(
                "demand.fallback",
                "demand",
                op=request.get("op", ""),
                proc=request.get("proc", request.get("name", "")),
            )
        answer = engine.query(request, budget=budget, info=info)
        if info is not None:
            info["mode"] = "demand"
            if engine.degraded:
                info["demand_degraded"] = True
        return answer

    # -- bookkeeping -------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            out = {
                "enabled": self.enabled,
                "verdict": self._verdict,
                "probes": self.probes,
                "fallbacks": self.fallbacks,
                "stale_served": self.stale_served,
                "stale_procs": len(self._stale),
                "globals_changed": self._globals_changed,
            }
            if self._error:
                out["error"] = self._error
            engine = self._engine
        if engine is not None:
            analysis = engine.analysis
            out["analyses"] = analysis.analyses
            out["analysis_seconds"] = round(analysis.analysis_seconds, 6)
            out["slices"] = analysis.slice_sizes()
        return out

    def for_store(self, store: dict) -> "DemandTier":
        """A fresh tier over a hot-swapped store, carrying the
        cumulative counters (the daemon's reload path)."""
        tier = DemandTier(
            store,
            enabled=self.enabled,
            entry=self.entry,
            tracer=self.trace,
            cache_size=self.cache_size,
        )
        with self._lock:
            tier.fallbacks = self.fallbacks
            tier.stale_served = self.stale_served
            tier.probes = self.probes
        return tier
