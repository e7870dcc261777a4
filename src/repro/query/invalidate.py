"""Staleness detection for the analysis store (``repro index``).

The store (:mod:`repro.query.store`) answers demand queries against a
*persisted* solution; this module answers the question every repeated
``repro index`` run must ask first: **is the stored solution still the
solution of these sources?** — and if not, *how little* of it must be
recomputed.

Two digest families cooperate:

* **IR digests** (this module) — one SHA-256 per procedure over a
  canonical rendering of its *lowered* flow graph (node kinds, canonical
  assignment/call text, edge structure — no source coordinates, no
  process-local uids), plus one digest over the global environment
  (globals, static initializers, string literals, external calls).
  These are cheap: re-parsing + re-lowering a unit costs milliseconds
  where re-analysis costs seconds, so the staleness check never runs
  the engine.
* **Solution digests** (:mod:`repro.diagnostics.snapshot`) — per
  procedure over the computed PTF payloads.  The store carries both;
  the incrementality tests compare them to prove that procedures marked
  *clean* by the IR digests really did keep their solution digests.

Canonicalization rules (what makes the IR digest *stable*):

* source **coordinates are excluded** — editing one procedure shifts the
  line numbers of everything below it in the same file, and that must
  not mark the rest of the unit stale;
* string literals are rendered by their **text**, not their ``<strN>``
  interning index (the index is a program-wide counter, so a new literal
  in one unit would otherwise renumber every literal after it);
* node identity is positional (the procedure's reverse-postorder
  index), never the process-local ``uid``.

Staleness propagation reaches both directions of the call graph.  A
changed procedure invalidates its **transitive callers**: in Wilson &
Lam's PTF scheme a caller's summary folds in its callees' side effects.
It also invalidates the **transitive callees** of itself and of those
callers: stored facts are merged over every calling context, and a
callee's contexts (its input alias patterns, the values its parameters
and globals carry in) come from its callers.  Editing ``main`` to pass
``&h`` where it passed ``&g`` changes what ``p`` points to inside the
unedited ``pick(int *p)``; an edit to ``use`` that stores a new pointer
in a global changes what the unedited ``peek`` reads from it after
``main`` calls both.  Callee edges include, from every caller of an
external (the libc models invoke their callback arguments: ``qsort``,
``bsearch``, ``atexit``, ``signal``), every address-taken procedure.
Only procedures no stale procedure can call stay clean.  A change to
the global environment digest invalidates everything (initializers run
in the root context).

One class of edit escapes the stored call graph entirely: **function-
pointer retargeting**.  The stored graph is the *pre-edit* resolution —
if an edit makes a changed (or added) procedure a new indirect-call
target, the edge from the indirect call site to it exists only in the
*post-edit* world, so pure stored-graph propagation under-invalidates
and a query would keep answering with the old target.  The widening
rule: whenever a changed/added procedure is address-taken (before *or*
after the edit), or the address-taken set itself moved, every procedure
containing an indirect call site goes stale too (any of them is
compatible with the retargeted pointer as far as digests can tell), and
their transitive callers with them.  Stores record ``address_taken`` /
``indirect_callers`` next to the digests for this; older stores missing
the record fall back to recomputing both sides from the new program.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.program import Procedure, Program

__all__ = [
    "procedure_ir_digest",
    "program_ir_digests",
    "StaleReport",
    "compute_stale",
    "compute_stale_between_stores",
]

_STR_TOKEN = re.compile(r"<(str\d+)>")


def _canonical_text(text: str, program: "Program") -> str:
    """Replace program-wide ``<strN>`` interning indices with the literal
    text they stand for, so per-procedure digests do not depend on how
    many literals *other* units interned first."""

    def sub(match: "re.Match[str]") -> str:
        block = program.string_blocks.get(match.group(1))
        if block is None:  # pragma: no cover - defensive
            return match.group(0)
        return f"<lit:{block.text!r}>"

    return _STR_TOKEN.sub(sub, text)


def procedure_ir_digest(proc: "Procedure", program: "Program") -> str:
    """SHA-256 over a canonical rendering of one lowered procedure.

    Covers the formal list, the local name space, and every flow-graph
    node (kind + canonical statement text + successor edges by RPO
    position).  Excludes source coordinates and process-local uids —
    see the module docstring for the rules and why.
    """
    nodes = list(proc.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    lines = [
        f"proc {proc.name}",
        "formals " + ",".join(f.name for f in proc.formals),
        "locals " + ",".join(sorted(proc.locals)),
        f"varargs {proc.is_varargs}",
    ]
    for i, node in enumerate(nodes):
        text = _canonical_text(node.describe(), program)
        succs = ",".join(str(index[s]) for s in node.succs if s in index)
        lines.append(f"{i} {node.kind} {text} -> {succs}")
    payload = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def program_ir_digests(program: "Program") -> dict:
    """Per-procedure IR digests plus the global-environment digest.

    The ``globals`` digest covers global names/sizes, static initializers
    (rendered canonically), string-literal texts and the set of external
    calls — anything that feeds the root context and therefore every
    procedure's analysis.
    """
    procedures = {
        name: procedure_ir_digest(proc, program)
        for name, proc in sorted(program.procedures.items())
    }
    env_lines = []
    for name, sym in sorted(program.globals.items()):
        env_lines.append(f"global {name} size={getattr(sym, 'size', None)}")
    for init in program.global_inits:
        env_lines.append(
            "init "
            + _canonical_text(f"{init.dst} = {init.src} ({init.size}B)", program)
        )
    for block in program.string_blocks.values():
        env_lines.append(f"string {block.text!r}")
    for name in sorted(program.external_calls):
        env_lines.append(f"external {name}")
    env_lines.sort()
    globals_digest = hashlib.sha256(
        "\n".join(env_lines).encode("utf-8")
    ).hexdigest()
    return {"procedures": procedures, "globals": globals_digest}


# ---------------------------------------------------------------------------
# stale-set computation
# ---------------------------------------------------------------------------


@dataclass
class StaleReport:
    """Which procedures of a store must be recomputed, and why.

    ``stale`` is the recomputation set: changed + added procedures plus
    their dependents (transitive callers, and the transitive callees of
    both).
    ``clean`` is its complement over the current program — the work a
    repeated ``repro index`` run may skip.
    """

    #: procedures whose IR digest moved
    changed: list[str] = field(default_factory=list)
    #: procedures present now but absent from the store
    added: list[str] = field(default_factory=list)
    #: procedures in the store but gone from the sources
    removed: list[str] = field(default_factory=list)
    #: transitive callers of changed/added/removed procedures, and the
    #: transitive callees of those and of the roots
    dependents: list[str] = field(default_factory=list)
    #: True when the global-environment digest moved (everything stale)
    globals_changed: bool = False
    #: the union: every procedure whose PTFs must be recomputed
    stale: list[str] = field(default_factory=list)
    #: current procedures whose stored solution remains valid
    clean: list[str] = field(default_factory=list)

    @property
    def up_to_date(self) -> bool:
        return not self.stale and not self.removed and not self.globals_changed

    def as_dict(self) -> dict:
        return {
            "up_to_date": self.up_to_date,
            "changed": self.changed,
            "added": self.added,
            "removed": self.removed,
            "dependents": self.dependents,
            "globals_changed": self.globals_changed,
            "stale": self.stale,
            "clean": self.clean,
        }

    def summary_lines(self) -> list[str]:
        if self.up_to_date:
            return ["store is up to date (all procedure digests match)"]
        lines = []
        if self.globals_changed:
            lines.append("global environment changed: every procedure is stale")
        if self.changed:
            lines.append("changed   : " + ", ".join(self.changed))
        if self.added:
            lines.append("added     : " + ", ".join(self.added))
        if self.removed:
            lines.append("removed   : " + ", ".join(self.removed))
        if self.dependents:
            lines.append("dependents: " + ", ".join(self.dependents))
        lines.append(
            f"stale {len(self.stale)}/{len(self.stale) + len(self.clean)} "
            "procedure(s); clean work will be skipped"
        )
        return lines


def _reachable(edges: dict, roots: set) -> set:
    """Every procedure reachable from ``roots`` over ``edges``."""
    out: set = set()
    work = list(roots)
    while work:
        for nxt in edges.get(work.pop(), ()):
            if nxt not in out:
                out.add(nxt)
                work.append(nxt)
    return out


def _dependents(call_graph: dict, roots: set) -> set:
    """The transitive callers of ``roots`` (their summaries embed a
    root's side effects) and the transitive callees of both (their
    calling contexts come from them)."""
    callers_of: dict[str, set] = {}
    for caller, callees in call_graph.items():
        for callee in callees:
            callers_of.setdefault(callee, set()).add(caller)
    callers = _reachable(callers_of, roots)
    return callers | _reachable(call_graph, roots | callers)


def _with_callbacks(call_graph: dict, procs, taken) -> dict:
    """``call_graph`` plus edges to every address-taken procedure from
    each caller of an external (the libc models call their callback
    arguments); ``taken`` None means unrecorded: every procedure."""
    procs = set(procs)
    taken = procs if taken is None else set(taken)
    graph = {caller: set(callees) for caller, callees in call_graph.items()}
    for callees in graph.values():
        if callees - procs:
            callees |= taken
    return graph


def _program_call_graph(program: "Program") -> dict:
    """The lowered program's call edges: direct targets (externals
    included), and every address-taken procedure at indirect call
    sites and at calls to externals."""
    from ..analysis.guards import _direct_targets, address_taken_procs

    taken = address_taken_procs(program)
    graph: dict = {}
    for name, proc in program.procedures.items():
        callees: set = set()
        for node in proc.call_nodes():
            callees |= _direct_targets(node) or taken
        graph[name] = callees
    return _with_callbacks(graph, program.procedures, taken)


def compute_stale(store: dict, program: "Program") -> StaleReport:
    """Compare a store's recorded IR digests against a freshly lowered
    ``program`` and report the set of procedures whose PTFs must be
    recomputed.

    The comparison is pure digest work — the analysis engine never runs.
    Dependents travel over the union of the store's *recorded* call
    graph and the lowered program's call edges: an edge in either world
    can carry a stale summary up or a changed context down, and only the
    new program can name an *added* procedure.
    """
    stored = store.get("ir", {})
    stored_procs: dict = stored.get("procedures", {})
    current = program_ir_digests(program)
    cur_procs = current["procedures"]

    report = StaleReport()
    report.globals_changed = bool(
        stored.get("globals") and stored["globals"] != current["globals"]
    )
    report.changed = sorted(
        name
        for name, digest in cur_procs.items()
        if name in stored_procs and stored_procs[name] != digest
    )
    report.added = sorted(set(cur_procs) - set(stored_procs))
    report.removed = sorted(set(stored_procs) - set(cur_procs))

    if report.globals_changed:
        report.stale = sorted(cur_procs)
        report.clean = []
        return report

    roots = set(report.changed) | set(report.added) | set(report.removed)
    call_graph = _with_callbacks(
        store.get("call_graph", {}), stored_procs, stored.get("address_taken")
    )
    for caller, callees in _program_call_graph(program).items():
        call_graph.setdefault(caller, set()).update(callees)
    widened = _fnptr_widening(stored, program, roots)
    dependents = _dependents(call_graph, roots | widened) | widened
    report.dependents = sorted((dependents - roots) & set(cur_procs))
    stale = (roots | dependents) & set(cur_procs)
    report.stale = sorted(stale)
    report.clean = sorted(set(cur_procs) - stale)
    return report


def compute_stale_between_stores(old_store: dict, new_store: dict) -> StaleReport:
    """Which procedures moved between two *store documents*.

    The hot-swap path of the serve daemon (``reload`` admin op) uses
    this to invalidate only the stale slice of the query LRU: both
    stores already carry their IR digests, call graphs and the
    ``address_taken`` / ``indirect_callers`` records, so the comparison
    needs no program lowering at all — pure recorded-digest work, safe
    to run under live traffic.

    The same propagation rules as :func:`compute_stale` apply, driven
    from the records: dependents travel over the *union* of the two
    call graphs (an edge present in either world can transmit a stale
    summary), and function-pointer widening fires from the recorded
    address-taken sets.  A missing globals digest on either side is
    treated as changed (conservative: cannot prove it didn't move).
    """
    old_ir = old_store.get("ir") or {}
    new_ir = new_store.get("ir") or {}
    old_procs: dict = old_ir.get("procedures") or {}
    new_procs: dict = new_ir.get("procedures") or {}

    report = StaleReport()
    old_globals = old_ir.get("globals")
    new_globals = new_ir.get("globals")
    report.globals_changed = (
        old_globals is None or new_globals is None or old_globals != new_globals
    )
    report.changed = sorted(
        name
        for name, digest in new_procs.items()
        if name in old_procs and old_procs[name] != digest
    )
    report.added = sorted(set(new_procs) - set(old_procs))
    report.removed = sorted(set(old_procs) - set(new_procs))

    if report.globals_changed:
        report.stale = sorted(new_procs)
        report.clean = []
        return report

    roots = set(report.changed) | set(report.added) | set(report.removed)
    call_graph: dict = {}
    for store, ir in ((old_store, old_ir), (new_store, new_ir)):
        for caller, callees in _with_callbacks(
            store.get("call_graph") or {},
            ir.get("procedures") or {},
            ir.get("address_taken"),
        ).items():
            call_graph.setdefault(caller, set()).update(callees)

    widened: set = set()
    if roots:
        old_taken_rec = old_ir.get("address_taken")
        new_taken_rec = new_ir.get("address_taken")
        old_taken = set(old_taken_rec or ())
        new_taken = set(new_taken_rec or ())
        indirect = set(old_ir.get("indirect_callers") or ()) | set(
            new_ir.get("indirect_callers") or ()
        )
        if old_taken_rec is None or new_taken_rec is None:
            # legacy store without the record: any edit near indirect
            # call sites must widen (the taken set is unknowable)
            trigger = bool(indirect)
        else:
            trigger = bool(roots & (old_taken | new_taken)) or (
                old_taken != new_taken
            )
        if trigger:
            widened = indirect & set(new_procs)

    dependents = _dependents(call_graph, roots | widened) | widened
    report.dependents = sorted((dependents - roots) & set(new_procs))
    stale = (roots | dependents) & set(new_procs)
    report.stale = sorted(stale)
    report.clean = sorted(set(new_procs) - stale)
    return report


def _fnptr_widening(stored: dict, program: "Program", roots: set) -> set:
    """Extra stale seeds covering function-pointer retargeting edits.

    If any root procedure is address-taken — in the stored world or the
    edited one — or the address-taken set itself moved, the stored call
    graph cannot be trusted to name the indirect call edges into the
    roots, so every procedure containing an indirect call site (old or
    new) is widened into the stale set.  Stores predating the
    ``address_taken`` record get the conservative recompute-both-sides
    treatment.
    """
    if not roots:
        return set()
    from ..analysis.guards import address_taken_procs, indirect_call_procs

    cur_taken = address_taken_procs(program)
    cur_indirect = indirect_call_procs(program)
    old_taken_rec = stored.get("address_taken")
    old_indirect_rec = stored.get("indirect_callers")
    old_taken = set(old_taken_rec) if old_taken_rec is not None else set()
    old_indirect = set(old_indirect_rec) if old_indirect_rec is not None else set()
    if old_taken_rec is None:
        # legacy store without the record: the old address-taken set is
        # unknowable, so any edit near indirect call sites must widen
        trigger = bool(cur_indirect | old_indirect)
    else:
        trigger = bool(roots & (cur_taken | old_taken)) or (
            set(old_taken_rec) != cur_taken
        )
    if not trigger:
        return set()
    return (cur_indirect | old_indirect) & set(program.procedures)
