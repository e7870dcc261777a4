"""Resource guards and the graceful-degradation ladder.

Wilson & Lam's algorithm assumes every procedure converges and the host
has unbounded stack and time.  Real batch workloads do not: a single
pathological procedure can blow past the pass budget, a deep call chain
can ride the Python stack toward ``RecursionError``, and a wall-clock
deadline may arrive mid-fixpoint.  This module turns each of those
blow-ups from a crash into a *degradation*:

* :class:`AnalysisBudget` — the resource envelope of one analyzer run:
  a wall-clock deadline, per-procedure pass budget, an explicit
  call-depth bound (replacing "however deep Python lets us recurse"),
  and caps on the total PTF count and per-state points-to entries.
* :class:`GuardTripped` — raised at the instrument site when a budget
  is exhausted.  ``AnalysisBudgetExceeded`` (the historical ``max_passes``
  valve in :mod:`repro.analysis.intra`) is a subclass, so every guard
  trips through one exception family.
* **The degradation ladder** — when a guard trips for a procedure the
  engine does *not* propagate the failure.  Instead the procedure is
  **quarantined**: its partial (unsound-to-use) PTF is discarded and
  every call to it — the tripping one and all later ones — is summarized
  by a *sound conservative havoc stub* (the same policy as calls to
  unknown external functions, widened to cover the procedure's
  transitively reachable globals; see
  ``InterproceduralMixin._degrade_call``).  Callers keep analyzing with
  the coarser summary; only ``--strict`` restores raise-through.
* :class:`DegradationRecord` / :class:`FrontendFault` /
  :class:`DegradationReport` — the structured account of what degraded
  and why, threaded through ``AnalyzerOptions`` → ``Analyzer.run`` →
  ``AnalysisResult`` and surfaced by ``--stats-json`` and the CLI's
  partial-results exit code.

The conservative region computation (:func:`conservative_region`) makes
the havoc stub *sound* for internal procedures: unlike an unknown
external — which, in this reproduction's closed-world model, can touch
only its arguments and its own storage — a skipped internal procedure
can also read and write any global it (transitively) references and can
take addresses of globals, string literals and functions.  The region
walk collects those statically; an indirect call inside the region
widens it to the whole program (any address-taken procedure could run).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .tripped import GuardTripped

if TYPE_CHECKING:  # pragma: no cover
    from ..ir.program import Program

__all__ = [
    "AnalysisBudget",
    "GuardTripped",
    "DegradationRecord",
    "FrontendFault",
    "DegradationReport",
    "conservative_region",
    "Region",
    "address_taken_procs",
    "indirect_call_procs",
]


@dataclass
class AnalysisBudget:
    """The resource envelope of one analyzer run.

    All limits default to "off" or to values no working analysis reaches,
    so a default-budget run behaves exactly like the unguarded engine.
    ``start()`` arms the wall clock; the engine reads the armed fields
    directly on its hot paths (one attribute load + compare per site).
    """

    #: wall-clock budget for the whole run (None = unlimited)
    deadline_seconds: Optional[float] = None
    #: fixpoint passes per procedure evaluation (the historical valve)
    max_passes: int = 200
    #: maximum analysis call-stack depth — the explicit replacement for
    #: unbounded Python recursion through ``_dispatch_internal``
    max_call_depth: int = 200
    #: cap on the total number of live PTFs across all procedures
    max_ptfs_total: Optional[int] = None
    #: cap on points-to entries (assigned keys + initial entries) per
    #: procedure state
    max_state_entries: Optional[int] = None

    # -- armed at run start ------------------------------------------------
    started_at: Optional[float] = field(default=None, repr=False)
    #: absolute ``time.perf_counter()`` deadline, or None when unlimited
    deadline_at: Optional[float] = field(default=None, repr=False)
    #: deepest analysis call stack observed (diagnostics)
    peak_depth: int = field(default=0, repr=False)

    @classmethod
    def from_options(cls, options) -> "AnalysisBudget":
        return cls(
            deadline_seconds=options.deadline_seconds,
            max_passes=options.max_passes,
            max_call_depth=options.max_call_depth,
            max_ptfs_total=options.max_ptfs_total,
            max_state_entries=options.max_state_entries,
        )

    def start(self) -> None:
        self.started_at = time.perf_counter()
        self.deadline_at = (
            self.started_at + self.deadline_seconds
            if self.deadline_seconds is not None
            else None
        )

    def deadline_exceeded(self) -> bool:
        return self.deadline_at is not None and time.perf_counter() > self.deadline_at

    def remaining_seconds(self) -> Optional[float]:
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - time.perf_counter())

    def note_depth(self, depth: int) -> None:
        if depth > self.peak_depth:
            self.peak_depth = depth

    def as_dict(self) -> dict:
        elapsed = (
            round(time.perf_counter() - self.started_at, 6)
            if self.started_at is not None
            else None
        )
        return {
            "deadline_seconds": self.deadline_seconds,
            "max_passes": self.max_passes,
            "max_call_depth": self.max_call_depth,
            "max_ptfs_total": self.max_ptfs_total,
            "max_state_entries": self.max_state_entries,
            "consumed": {
                "elapsed_seconds": elapsed,
                "peak_call_depth": self.peak_depth,
            },
        }


@dataclass
class DegradationRecord:
    """One procedure (or call) that fell down the degradation ladder."""

    proc: str
    #: stable reason string (see :class:`GuardTripped`)
    reason: str
    detail: str = ""
    #: call site where the degraded summary was applied ("" for the
    #: quarantine record itself / for ``main``)
    call_site: str = ""

    def as_dict(self) -> dict:
        return {
            "proc": self.proc,
            "reason": self.reason,
            "detail": self.detail,
            "call_site": self.call_site,
        }

    def render(self) -> str:
        out = f"proc={self.proc} reason={self.reason}"
        if self.call_site:
            out += f" call_site={self.call_site}"
        if self.detail:
            out += f" detail={self.detail}"
        return out


@dataclass
class FrontendFault:
    """A translation unit (or single procedure) the frontend quarantined."""

    filename: str
    #: ``parse_error`` / ``lower_error`` / ``injected``
    reason: str
    detail: str = ""
    #: procedure quarantined by a per-procedure lowering fault ("" when
    #: the whole unit was dropped)
    proc: str = ""

    def as_dict(self) -> dict:
        return {
            "file": self.filename,
            "reason": self.reason,
            "detail": self.detail,
            "proc": self.proc,
        }

    def render(self) -> str:
        out = f"file={self.filename}"
        if self.proc:
            out += f" proc={self.proc}"
        out += f" reason={self.reason}"
        if self.detail:
            detail = self.detail.replace("\n", " ")
            out += f" detail={detail}"
        return out


class DegradationReport:
    """Structured account of everything that degraded during a run.

    ``ok`` is True only for a fully precise run; any quarantine, havoc
    fallback or frontend fault makes the result *partial* in the CLI's
    exit-code convention (exit 4).  ``partial`` additionally flags that
    ``main`` itself tripped a guard, i.e. even the top-level results are
    an under-approximation of a full fixpoint and should be treated as
    best-effort.
    """

    def __init__(self) -> None:
        self.records: list[DegradationRecord] = []
        self._record_keys: dict[tuple, DegradationRecord] = {}
        self.frontend: list[FrontendFault] = []
        #: procedures whose partial PTFs were discarded; every later call
        #: to them degrades immediately to the havoc stub
        self.quarantined: set[str] = set()
        #: True when ``main``'s own evaluation tripped a guard
        self.partial: bool = False
        #: filled by the engine (the armed budget of the run)
        self.budget: Optional[AnalysisBudget] = None

    # -- recording ---------------------------------------------------------

    def record(
        self, proc: str, reason: str, detail: str = "", call_site: str = ""
    ) -> DegradationRecord:
        """Record one degradation, deduplicated on (proc, reason, site).

        A quarantined procedure's call sites degrade on *every* fixpoint
        pass of their caller; one record per distinct site keeps the
        report proportional to the program, not to the iteration count.
        """
        key = (proc, reason, call_site)
        existing = self._record_keys.get(key)
        if existing is not None:
            return existing
        rec = DegradationRecord(proc, reason, detail, call_site)
        self._record_keys[key] = rec
        self.records.append(rec)
        return rec

    def quarantine(self, proc: str, reason: str, detail: str = "") -> None:
        if proc not in self.quarantined:
            self.quarantined.add(proc)
            self.record(proc, reason, detail)

    def add_frontend(self, fault: FrontendFault) -> None:
        self.frontend.append(fault)
        if fault.proc:
            self.quarantined.add(fault.proc)

    # -- queries -----------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.records and not self.frontend and not self.partial

    def reasons(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.records:
            out[rec.reason] = out.get(rec.reason, 0) + 1
        for fault in self.frontend:
            out[fault.reason] = out.get(fault.reason, 0) + 1
        return out

    def as_dict(self) -> dict:
        out = {
            "ok": self.ok,
            "partial": self.partial,
            "quarantined": sorted(self.quarantined),
            "records": [r.as_dict() for r in self.records],
            "frontend": [f.as_dict() for f in self.frontend],
            "reasons": self.reasons(),
        }
        if self.budget is not None:
            out["budget"] = self.budget.as_dict()
        return out

    def summary_lines(self) -> list[str]:
        lines = [f"degraded : {rec.render()}" for rec in self.records]
        lines.extend(f"frontend : {fault.render()}" for fault in self.frontend)
        if self.partial:
            lines.append("partial  : main tripped a guard; "
                         "top-level results are best-effort")
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DegradationReport ok={self.ok} records={len(self.records)} "
            f"frontend={len(self.frontend)} "
            f"quarantined={sorted(self.quarantined)}>"
        )


# ---------------------------------------------------------------------------
# conservative reach region (what a skipped procedure could touch)
# ---------------------------------------------------------------------------


@dataclass
class Region:
    """What ``proc`` and everything it can statically reach may touch."""

    #: global variable names read/written/addressed anywhere in the region
    globals: frozenset
    #: procedure names in the region (callable or address-taken)
    procs: frozenset
    #: string-literal sites whose addresses appear in the region (the key
    #: of ``Program.string_blocks``)
    strings: frozenset
    #: True when the region contains an indirect call or an unknown
    #: callee, i.e. the static walk could not bound it — treat as "may
    #: touch every global / any address-taken procedure"
    world: bool


def _walk_value(value, globals_, procs, strings) -> None:
    from ..ir.expr import AddressTerm, AdjustTerm, ContentsTerm

    for term in value.terms:
        if isinstance(term, (AddressTerm, ContentsTerm)):
            _walk_loc(term.loc, globals_, procs, strings)
        elif isinstance(term, AdjustTerm):
            _walk_value(term.value, globals_, procs, strings)


def _walk_loc(loc, globals_, procs, strings) -> None:
    from ..ir.expr import (
        DerefLoc,
        GlobalSymbol,
        ProcSymbol,
        StringSymbol,
        SymbolLoc,
    )

    if isinstance(loc, SymbolLoc):
        sym = loc.symbol
        if isinstance(sym, GlobalSymbol):
            globals_.add(sym.name)
        elif isinstance(sym, ProcSymbol):
            procs.add(sym.name)
        elif isinstance(sym, StringSymbol):
            strings.add(sym.site)  # string_blocks is keyed by site
    elif isinstance(loc, DerefLoc):
        _walk_value(loc.pointer, globals_, procs, strings)


def _direct_targets(node) -> set[str]:
    """Statically named call targets of a call node ('' when indirect)."""
    from ..ir.expr import AddressTerm, ProcSymbol, SymbolLoc

    out: set[str] = set()
    for term in node.target.terms:
        if (
            isinstance(term, AddressTerm)
            and isinstance(term.loc, SymbolLoc)
            and isinstance(term.loc.symbol, ProcSymbol)
        ):
            out.add(term.loc.symbol.name)
    return out


def address_taken_procs(program: "Program") -> set[str]:
    """Internal procedures whose address escapes into data.

    A procedure is address-taken when a reference to it appears in an
    assignment source, a call argument, an indirect call target
    expression or a static global initializer — anywhere other than as
    the direct target of a call.  Call destinations are not walked: a
    destination is a location written, not a value that carries an
    address.  These are exactly the procedures an indirect call site may
    reach.
    """
    from ..ir.nodes import AssignNode, CallNode

    taken: set[str] = set()
    ignored: set = set()
    for proc in program.procedures.values():
        for node in proc.nodes():
            if isinstance(node, AssignNode):
                _walk_value(node.src, ignored, taken, ignored)
            elif isinstance(node, CallNode):
                if not _direct_targets(node):
                    _walk_value(node.target, ignored, taken, ignored)
                for arg in node.args:
                    _walk_value(arg, ignored, taken, ignored)
    for init in program.global_inits:
        _walk_value(init.src, ignored, taken, ignored)
    return taken & set(program.procedures)


def indirect_call_procs(program: "Program") -> set[str]:
    """Procedures containing at least one indirect (function-pointer)
    call site — the consumers a retargeted function pointer can affect."""
    out: set[str] = set()
    for name, proc in program.procedures.items():
        for node in proc.call_nodes():
            if not _direct_targets(node):
                out.add(name)
                break
    return out


def conservative_region(program: "Program", proc_name: str) -> Region:
    """Everything ``proc_name`` may touch, by a static worklist walk.

    Globals, address-taken procedures and string literals referenced by
    the procedure or by anything it transitively calls.  Indirect calls
    and calls to procedures outside the program (externals, libc) widen
    the region to ``world`` — every global and every procedure of the
    program — because the static walk cannot bound what runs next.
    Pure-name walk over the IR; no points-to information is consulted,
    so the result is safe to use *before* (instead of) analyzing the
    procedure.
    """
    from ..ir.nodes import AssignNode, CallNode

    globals_: set = set()
    procs: set = set()
    strings: set = set()
    world = False
    seen: set[str] = set()
    work = [proc_name]
    while work:
        name = work.pop()
        if name in seen:
            continue
        seen.add(name)
        proc = program.procedures.get(name)
        if proc is None:
            # unknown callee (external / libc / quarantined unit): the
            # static walk cannot see inside it
            world = True
            continue
        procs.add(name)
        for node in proc.nodes():
            if isinstance(node, AssignNode):
                if node.dst is not None:
                    _walk_loc(node.dst, globals_, procs, strings)
                _walk_value(node.src, globals_, procs, strings)
            elif isinstance(node, CallNode):
                targets = _direct_targets(node)
                if not targets:
                    world = True  # indirect call: anything address-taken
                _walk_value(node.target, globals_, procs, strings)
                for arg in node.args:
                    _walk_value(arg, globals_, procs, strings)
                if node.dst is not None:
                    _walk_loc(node.dst, globals_, procs, strings)
                for target in targets:
                    if target not in seen:
                        work.append(target)
        # every procedure whose address appeared is callable from here
        for taken in list(procs):
            if taken not in seen:
                work.append(taken)
    if world:
        globals_ |= set(program.globals)
        procs |= set(program.procedures)
    return Region(
        globals=frozenset(globals_),
        procs=frozenset(procs),
        strings=frozenset(strings),
        world=world,
    )
