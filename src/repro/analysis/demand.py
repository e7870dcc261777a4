"""Demand mode: answering queries over edited sources without a re-index.

The exhaustive pipeline (``repro index`` -> store -> ``repro query``)
answers every question from facts computed once, up front.  Its blind
spot is the edit loop: one changed line makes the store stale, and
until a full re-index runs the daemon would either refuse or silently
serve outdated facts.

:class:`DemandTier` closes that gap.  It probes the indexed sources
(stat signature -> content hash -> re-lowering ->
:func:`repro.query.invalidate.compute_stale`), and when the stored fact
a query depends on is stale it answers from a fresh index of the edited
sources: :func:`~repro.analysis.results.run_analysis` plus
:func:`~repro.query.store.build_store`, in memory, under the store's
recorded options, served by a plain :class:`QueryEngine`.  That is
exactly what ``repro index`` + ``repro query`` would answer, so demand
answers are byte-identical to a fresh index by construction.  Wilson–Lam
facts are resolved per calling context, so the analysis is the whole
program's; one runs per source generation, on the first routed query.

Byte-identity has one process-level precondition: PTF uids (which the
stored alias tables embed) and memory-block uids are allocated from
process-global counters.  :func:`fresh_analysis_state` restarts both,
and the tier calls it before every re-lowering; this is safe because
location sets compare their base blocks by object identity, never by
uid, so objects from different analysis generations cannot be confused
(see :mod:`repro.memory.locset`).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from ..query.engine import QueryEngine
from ..query.store import build_store, source_records

__all__ = [
    "DemandTier",
    "fresh_analysis_state",
    "index_in_memory",
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
    from .engine import options_from_payload

    return options_from_payload(store.get("options"))


def index_in_memory(
    program, options=None, program_name: Optional[str] = None,
    sources: Optional[list] = None, source_files: Optional[list] = None,
) -> dict:
    """What ``repro index`` would write for ``program``, never written:
    one whole-program analysis and one store document.  The caller
    lowers ``program`` after :func:`fresh_analysis_state`."""
    from .results import run_analysis

    return build_store(
        run_analysis(program, options), options=options,
        program_name=program_name, sources=sources,
        source_files=source_files,
    )


#: ops whose answers depend on program-wide structure (the call graph
#: or the reverse points-to index): any staleness at all routes them
_PROGRAM_WIDE_OPS = frozenset(("pointed_by", "reaches", "callees", "callers"))


class DemandTier:
    """Staleness probe + demand fallback for one store's sources.

    Attached to a :class:`QueryEngine` (its ``demand`` slot), consulted
    on every query under the engine lock.  ``route`` classifies the
    request: ``None`` (store fresh for this fact — serve normally),
    ``"stale"`` (serve the store answer annotated ``stale: true``), or
    ``"demand"`` (answer from a fresh in-memory index).  A tier with
    ``enabled=False`` still probes — that is what powers the honest
    ``stale: true`` annotation under ``--no-demand``.

    The probe is cheap by design: a stat signature guards a content
    hash guards a re-lowering.  Unchanged files cost ``len(sources)``
    stats per query; an edit costs one hash pass, one lowering, one
    :func:`compute_stale`, and (on the first routed query) one analysis
    plus one store build — all memoized until the sources move again.
    Stores without recorded sources (in-memory tests, ``--stdin``
    pipelines) are never probed and never stale.

    Probe failures (vanished files, parse errors mid-edit, an edit that
    removes ``main``) never break serving: the tier degrades to
    "everything stale, no fresh index", so the store keeps answering
    with ``stale: true`` until the sources are analyzable again.
    """

    def __init__(
        self,
        store: dict,
        enabled: bool = True,
        tracer=None,
        cache_size: int = 256,
    ) -> None:
        self.store = store
        self.enabled = enabled
        self.trace = tracer
        self.cache_size = cache_size
        # built from the store on the first refresh: a tier over
        # unchanged sources never needs the analyzer's options
        self.options = None
        records = [rec for rec in store.get("sources") or [] if rec.get("path")]
        #: the paths as indexed (what answers display) and where the
        #: probe reads them: a relative path's recorded absolute form,
        #: so the probe works from any working directory (stores
        #: written without one fall back to the path itself)
        self.paths = [rec["path"] for rec in records]
        self.files = [rec.get("abspath") or rec["path"] for rec in records]
        self._stored_digests = tuple(rec.get("sha256") for rec in records)
        self._lock = threading.RLock()
        self._sig = None
        self._content = None
        self._verdict = "fresh"
        self._stale: frozenset = frozenset()
        self._globals_changed = False
        self._any_stale = False
        # the lowered edited sources, and the engine over their fresh
        # index (built on the first routed query)
        self._program = None
        self._engine: Optional[QueryEngine] = None
        self._error: Optional[str] = None
        #: whole-program analyses this tier ran, and their wall time
        self.analyses = 0
        self.analysis_seconds = 0.0
        # cumulative counters (carried across reloads by :meth:`for_store`)
        self.fallbacks = 0
        self.stale_served = 0
        self.probes = 0

    # -- probing -----------------------------------------------------------

    def _signature(self):
        sig = []
        for path in self.files:
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
                content = tuple(
                    rec["sha256"] for rec in source_records(self.files)
                )
            except OSError as exc:
                return self._enter_error(f"cannot hash sources: {exc}")
            self._sig = sig
            if content == self._content:
                return self._verdict  # touched but not changed since last look
            self._content = content
            self._program = None
            self._engine = None
            if content == self._stored_digests:
                # sources returned to the indexed content: store valid again
                self._verdict = "fresh"
                self._stale = frozenset()
                self._globals_changed = False
                self._any_stale = False
                self._error = None
                return self._verdict
            return self._refresh()

    def _refresh(self) -> str:
        """Sources changed: lower them and diff digests against the store."""
        from ..frontend.parser import load_project_files
        from ..query.invalidate import compute_stale

        if self.options is None:
            self.options = options_from_store(self.store)
        fresh_analysis_state()
        try:
            program = load_project_files(
                list(self.files), name=self.store.get("program", "<project>")
            )
        except Exception as exc:  # parse errors mid-edit must not kill serving
            return self._enter_error(f"sources no longer lower: {exc}")
        if "main" not in program.procedures:
            return self._enter_error("no analyzable main procedure")
        report = compute_stale(self.store, program)
        self._stale = frozenset(report.stale) | frozenset(report.removed)
        self._globals_changed = report.globals_changed
        self._any_stale = not report.up_to_date
        self._error = None
        self._verdict = "stale" if self._any_stale else "fresh"
        self._program = program
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
        self._program = None
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
                or (self._program is not None
                    and proc not in engine.store["index"]["procedures"]
                    and proc in self._program.procedures)
            )
        if not affected:
            return None
        if self.enabled and self._program is not None:
            return "demand"
        with self._lock:
            self.stale_served += 1
        return "stale"

    def _fresh_engine(self) -> QueryEngine:
        """The engine over the edited sources' in-memory index; the
        first call per source generation runs the analysis."""
        if self._engine is None:
            started = time.perf_counter()
            store = index_in_memory(
                self._program, self.options,
                program_name=self.store.get("program"), sources=self.paths,
                source_files=self.files,
            )
            seconds = time.perf_counter() - started
            self.analyses += 1
            self.analysis_seconds += seconds
            if self.trace is not None:
                self.trace.instant(
                    "demand.analyze",
                    "demand",
                    procs=len(self._program.procedures),
                    seconds=round(seconds, 6),
                )
            self._engine = QueryEngine(
                store, tracer=self.trace, cache_size=self.cache_size
            )
        return self._engine

    def answer(self, request: dict, budget=None, info: Optional[dict] = None) -> dict:
        """Answer a routed request from the fresh index."""
        with self._lock:
            self.fallbacks += 1
            engine = self._fresh_engine()
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
                "analyses": self.analyses,
                "analysis_seconds": round(self.analysis_seconds, 6),
            }
            if self._error:
                out["error"] = self._error
        return out

    def for_store(self, store: dict) -> "DemandTier":
        """A fresh tier over a hot-swapped store, carrying the
        cumulative counters (the daemon's reload path)."""
        tier = DemandTier(
            store,
            enabled=self.enabled,
            tracer=self.trace,
            cache_size=self.cache_size,
        )
        with self._lock:
            tier.fallbacks = self.fallbacks
            tier.stale_served = self.stale_served
            tier.probes = self.probes
        return tier
