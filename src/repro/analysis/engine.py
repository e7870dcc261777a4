"""The analysis engine: options, driver, and top-level entry point.

``analyze(program)`` runs the Wilson-Lam analysis starting from ``main``
(§2.3): an iterative intraprocedural analysis of ``main`` that recursively
analyzes callees on demand, creating partial transfer functions lazily and
reusing them whenever the input aliases match.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Optional

from ..diagnostics import FaultPlan, Metrics, ProvenanceLog, Tracer
from ..ir.program import Procedure, Program
from ..memory.blocks import GlobalBlock, HeapBlock
from ..memory.locset import LocationSet
from .context import Frame, RootFrame
from .guards import AnalysisBudget, DegradationReport, GuardTripped, Region
from .interproc import InterproceduralMixin
from .intra import ProcEvaluator
from .libc import LibcSummaries
from .ptf import PTF, ParamMap
from .recursion import ensure_recursion_limit

__all__ = [
    "AnalyzerOptions",
    "Analyzer",
    "analyze",
    "options_payload",
    "options_from_payload",
]


@dataclass
class AnalyzerOptions:
    """Tunable knobs, including the ablation switches DESIGN.md calls out."""

    #: what to do with calls to unknown external functions:
    #: "havoc" (conservative) or "ignore" (optimistic)
    external_policy: str = "havoc"
    #: iteration budget per procedure evaluation (safety valve)
    max_passes: int = 200
    #: fixpoint iterations for recursive cycles
    max_recursion_iters: int = 50
    #: soft cap on PTFs per procedure; beyond it, reuse is forced by
    #: merging into the procedure's first PTF (§8's suggested generalization)
    ptf_limit: int = 64
    #: heap-naming context depth (§3): 0 = static allocation site only (the
    #: paper's choice); k > 0 appends up to k call-chain edges, the
    #: Choi-style scheme the paper discusses as more precise but heavier
    heap_context_depth: int = 0
    #: disable strong updates entirely (ablation)
    strong_updates: bool = True
    #: when False, skip the offset-based reuse of an aliased parameter and
    #: always merge aliased parameters into a fresh one (ablation for the
    #: §3.2 design choice; more parameters, coarser targets)
    subsumption: bool = True
    #: when False, never reuse a PTF across call sites — every calling
    #: context gets its own summary, reproducing Emami et al.'s
    #: reanalyze-per-context behaviour (§6); expect invocation-graph-sized
    #: PTF counts and analysis blow-up
    reuse_ptfs: bool = True
    #: optional :class:`repro.diagnostics.trace.Tracer` collecting the
    #: hierarchical span/event trace (driver phases, per-procedure
    #: evaluations, fixpoint passes, interprocedural events).  ``None``
    #: (the default) disables tracing entirely: instrument sites cost one
    #: ``is not None`` check, results and metrics are bit-identical
    trace: Optional[Tracer] = None
    #: when True, every points-to derivation is recorded in
    #: ``Analyzer.provenance`` (a ProvenanceLog) so ``repro explain`` can
    #: answer "why does p point to x?"; off by default (same contract)
    provenance: bool = False
    # -- resource budgets + the degradation ladder (guards.py) -----------
    #: wall-clock budget for the whole run in seconds (None = unlimited);
    #: on expiry, remaining procedures degrade to conservative summaries
    deadline_seconds: Optional[float] = None
    #: maximum analysis call-stack depth — the explicit, checked
    #: replacement for unbounded Python recursion through
    #: ``_dispatch_internal`` (the interpreter recursion limit is raised
    #: in ``run`` so this guard always fires first)
    max_call_depth: int = 200
    #: cap on the number of live PTFs across the whole run (None = off);
    #: at the cap, contexts force-merge into existing summaries and
    #: never-summarized procedures degrade
    max_ptfs_total: Optional[int] = None
    #: cap on points-to entries per procedure state (None = off)
    max_state_entries: Optional[int] = None
    #: restore the historical raise-through behaviour: a tripped guard
    #: propagates as :class:`repro.analysis.guards.GuardTripped` instead
    #: of degrading the procedure
    strict: bool = False
    #: optional deterministic fault-injection plan
    #: (:class:`repro.diagnostics.faults.FaultPlan`) exercising the
    #: degradation paths; None (the default) injects nothing
    faults: Optional[FaultPlan] = None


def options_payload(options: Optional[AnalyzerOptions]) -> dict:
    """The wire form of ``options``: its scalar fields that differ from
    the defaults.  Worker tasks, bench subprocess rows, snapshots and
    stores all record options this way; live objects (tracer, fault
    plan) are not encoded."""
    if options is None:
        return {}
    defaults = AnalyzerOptions()
    out = {}
    for f in fields(AnalyzerOptions):
        value = getattr(options, f.name)
        if value == getattr(defaults, f.name):
            continue
        if isinstance(value, (bool, int, float, str)) or value is None:
            out[f.name] = value
    return out


def options_from_payload(payload: Optional[dict]) -> AnalyzerOptions:
    """Decode :func:`options_payload`.  Fields this version does not
    know are dropped, so a store or snapshot that recorded a retired
    option still loads."""
    known = {f.name for f in fields(AnalyzerOptions)}
    return AnalyzerOptions(
        **{k: v for k, v in (payload or {}).items() if k in known}
    )


class Analyzer(InterproceduralMixin):
    """Analysis engine and shared interprocedural state."""

    def __init__(self, program: Program, options: Optional[AnalyzerOptions] = None) -> None:
        self.program = program
        self.options = options or AnalyzerOptions()
        self.libc = LibcSummaries()
        self.stack: list[Frame] = []
        self.ptfs: dict[str, list[PTF]] = {}
        self._ptf_by_uid: dict[int, PTF] = {}
        self._heap_blocks: dict[str, HeapBlock] = {}
        self._libc_statics: dict[str, GlobalBlock] = {}
        self.root = RootFrame(self)
        self.main_frame: Optional[Frame] = None
        self.elapsed_seconds: float = 0.0
        #: hot-path counters and phase/procedure timers, shared by every
        #: points-to state this analyzer creates
        self.metrics = Metrics()
        #: optional span/event tracer; instrument sites hold this in a
        #: local and guard with ``is not None`` (no cost when disabled)
        self.trace: Optional[Tracer] = self.options.trace
        #: optional points-to derivation log for ``repro explain``
        self.provenance: Optional[ProvenanceLog] = (
            ProvenanceLog(tracer=self.trace) if self.options.provenance else None
        )
        #: the resource envelope of this run (armed by ``run``)
        self.budget: AnalysisBudget = AnalysisBudget.from_options(self.options)
        #: structured account of everything that degraded
        self.degradation: DegradationReport = DegradationReport()
        self.degradation.budget = self.budget
        #: optional deterministic fault-injection plan
        self.faults: Optional[FaultPlan] = self.options.faults
        #: conservative-region cache for the degraded-call havoc
        self._regions: dict[str, Region] = {}
        #: process-global memory gauges at construction time; the per-run
        #: deltas reported by :meth:`memory_profile` subtract these
        from ..memory import blocks as _blocks_mod
        from ..memory import locset as _locset_mod
        from ..memory import pointsto as _pointsto_mod

        self._mem_baseline = {
            "blocks": _blocks_mod.blocks_created(),
            "locsets": _locset_mod.locsets_interned(),
            "values_intern": _pointsto_mod.values_intern_size(),
        }
        # frontend faults travel with the program: quarantine the affected
        # procedures before the first dispatch can reach them
        for fault in getattr(program, "frontend_failures", ()):
            self.degradation.add_frontend(fault)

    # -- shared allocation ----------------------------------------------

    def heap_block(self, site: str, chain: tuple = ()) -> HeapBlock:
        key = (site, tuple(chain))
        block = self._heap_blocks.get(key)
        if block is None:
            block = HeapBlock(site, chain)
            self._heap_blocks[key] = block
        return block

    def rekey_heap(self, block: HeapBlock, call_site: str) -> HeapBlock:
        """Choi-style heap naming (§3): when a heap value crosses a call
        boundary back into the caller, prepend the call edge to its
        allocation context, bounded by ``heap_context_depth``."""
        depth = self.options.heap_context_depth
        if depth <= 0:
            return block
        chain = (call_site,) + block.chain
        chain = chain[:depth]
        if chain == block.chain:
            return block
        rekeyed = self.heap_block(block.site, chain)
        # pointer-location registrations travel with the block name
        for off_stride in block.pointer_locations:
            rekeyed.register_pointer_location(*off_stride)
        return rekeyed

    def libc_static_block(self, tag: str) -> GlobalBlock:
        block = self._libc_statics.get(tag)
        if block is None:
            block = GlobalBlock(f"<libc:{tag}>")
            self._libc_statics[tag] = block
        return block

    def new_ptf(self, proc: Procedure) -> PTF:
        ptf = PTF(proc, metrics=self.metrics, provenance=self.provenance)
        self.ptfs.setdefault(proc.name, []).append(ptf)
        self._ptf_by_uid[ptf.uid] = ptf
        return ptf

    # -- driver -----------------------------------------------------------

    def run(self) -> "Analyzer":
        tr = self.trace
        start = time.perf_counter()
        self.budget.start()
        # the explicit call-depth guard must fire before CPython's own
        # recursion limit: each analysis call level costs a bounded number
        # of interpreter frames, so raise the limit proportionally.  The
        # limit is process-global — raise-only under a lock (never
        # restored), or a finishing run would yank it down under a
        # concurrent deep run (see analysis/recursion.py)
        ensure_recursion_limit(20 * self.budget.max_call_depth + 1000)
        if tr is not None:
            tr.begin("analyze", "driver", program=self.program.name)
            for fault in self.degradation.frontend:
                tr.instant(
                    "degrade.frontend",
                    "driver",
                    file=fault.filename,
                    proc=fault.proc,
                    reason=fault.reason,
                )
        try:
            if tr is not None:
                tr.begin("finalize", "phase")
            try:
                with self.metrics.phase("finalize"):
                    self.program.finalize()
            finally:
                if tr is not None:
                    tr.end("finalize", "phase")
            main = self.program.main
            ptf = self.new_ptf(main)
            param_map = self._main_param_map(main)
            frame = Frame(self, main, ptf, param_map, None, self.root)
            self.main_frame = frame
            ptf.current_map = param_map
            ptf.analyzing = True
            self.stack.append(frame)
            self.budget.note_depth(len(self.stack))
            if tr is not None:
                tr.begin("analysis", "phase")
            try:
                with self.metrics.phase("analysis"):
                    try:
                        ProcEvaluator(self, frame).run()
                    except GuardTripped as trip:
                        # a guard tripped in main's own evaluation: there
                        # is no caller to degrade into — keep the partial
                        # state, flag the run as partial (exit code 4)
                        if self.options.strict:
                            raise
                        if not trip.proc:
                            trip.proc = main.name
                        self.metrics.guard_trips += 1
                        self.degradation.partial = True
                        self.degradation.record(
                            trip.proc, trip.reason, trip.detail
                        )
                        if tr is not None:
                            tr.instant(
                                "degrade.proc",
                                "interproc",
                                proc=trip.proc,
                                reason=trip.reason,
                                detail=trip.detail,
                            )
            finally:
                self.stack.pop()
                ptf.analyzing = False
                if tr is not None:
                    tr.end("analysis", "phase")
            if tr is not None:
                tr.begin("summary", "phase")
            try:
                with self.metrics.phase("summary"):
                    ptf.summary()
            finally:
                if tr is not None:
                    tr.end("summary", "phase")
        finally:
            if tr is not None:
                tr.end("analyze", "driver")
        self.elapsed_seconds = time.perf_counter() - start
        return self

    # -- memory accounting ------------------------------------------------

    def memory_profile(self) -> dict:
        """Live memory gauges of this run (``stats_dict()["memory"]``,
        which ``--stats-json`` writes).

        Cheap — sums of live container sizes plus per-run deltas of the
        process-global interning counters
        (:func:`repro.memory.blocks.blocks_created`,
        :func:`repro.memory.locset.locsets_interned`,
        :func:`repro.memory.pointsto.values_intern_size`).
        """
        from ..memory import blocks as _blocks_mod
        from ..memory import locset as _locset_mod
        from ..memory import pointsto as _pointsto_mod

        state_totals: dict[str, int] = {}
        ptf_count = 0
        param_count = 0
        initial_count = 0
        for ptfs in self.ptfs.values():
            for ptf in ptfs:
                ptf_count += 1
                param_count += len(ptf.params)
                initial_count += len(ptf.initial_entries)
                for key, value in ptf.state.footprint().items():
                    state_totals[key] = state_totals.get(key, 0) + value
        return {
            "blocks_created": _blocks_mod.blocks_created()
            - self._mem_baseline["blocks"],
            "locsets_interned": _locset_mod.locsets_interned()
            - self._mem_baseline["locsets"],
            "values_intern_live": _pointsto_mod.values_intern_size(),
            "values_intern_delta": _pointsto_mod.values_intern_size()
            - self._mem_baseline["values_intern"],
            "state": dict(sorted(state_totals.items())),
            "ptf_store": {
                "ptfs": ptf_count,
                "params": param_count,
                "initial_entries": initial_count,
            },
            "heap_blocks": len(self._heap_blocks),
        }

    def _main_param_map(self, main: Procedure) -> ParamMap:
        """Bind main's formals: argc is scalar, argv points at the synthetic
        argument vector, envp at its own synthetic environment vector (a
        distinct block — argv and envp never alias in a real process)."""
        param_map = ParamMap()
        for i, formal in enumerate(main.formals):
            if i == 1:
                argv = LocationSet(self.root.argv_array, 0, 0)
                param_map.actuals[formal.name] = ((0, 0, frozenset({argv})),)
            elif i == 2:  # envp
                envp = LocationSet(self.root.envp_array, 0, 0)
                param_map.actuals[formal.name] = ((0, 0, frozenset({envp})),)
            else:
                param_map.actuals[formal.name] = tuple()
        return param_map

    # -- diagnostics ------------------------------------------------------

    def stats_dict(self) -> dict:
        """JSON-serializable snapshot: the metrics layer's counters,
        derived ratios and timers, plus the run's elapsed time,
        degradation account and memory gauges (``--stats-json``)."""
        out = self.metrics.as_dict()
        out["elapsed_seconds"] = round(self.elapsed_seconds, 6)
        out["degradation"] = self.degradation.as_dict()
        out["memory"] = self.memory_profile()
        return out

    # -- statistics (Table 2 columns) -------------------------------------

    def ptf_counts(self) -> dict[str, int]:
        return {name: len(v) for name, v in sorted(self.ptfs.items())}


def analyze(program: Program, options: Optional[AnalyzerOptions] = None) -> Analyzer:
    """Run the full context-sensitive pointer analysis on ``program``."""
    return Analyzer(program, options).run()
