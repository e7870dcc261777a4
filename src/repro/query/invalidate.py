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
rule: whenever a changed/added/removed procedure is address-taken
(before *or* after the edit), or the address-taken set itself moved,
every procedure containing an indirect call site (in either world) goes
stale too (any of them is compatible with the retargeted pointer as far
as digests can tell), and their dependents with them.  Stores record
``address_taken`` / ``indirect_callers`` next to the digests for this
(:func:`program_ir_record`).

One rule serves every caller: :func:`compute_stale` compares a store's
``ir`` record with the record of a freshly lowered program (a repeated
``repro index``, the demand tier's probe), and
:func:`compute_stale_between_stores` compares two stores' records (the
serve daemon's ``reload``, which lowers nothing).
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
    "program_ir_record",
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


def program_ir_record(program: "Program") -> dict:
    """The ``ir`` record of a store: :func:`program_ir_digests` plus the
    sorted ``address_taken`` procedures and ``indirect_callers`` (those
    holding an indirect call site), which function-pointer widening
    reads.  :func:`~repro.query.store.build_store` writes it and
    :func:`compute_stale` compares a store's record against it, so the
    stored side and the live side are one function's output."""
    from ..analysis.guards import address_taken_procs, indirect_call_procs

    record = program_ir_digests(program)
    record["address_taken"] = sorted(address_taken_procs(program))
    record["indirect_callers"] = sorted(indirect_call_procs(program))
    return record


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
    arguments)."""
    procs = set(procs)
    taken = set(taken)
    graph = {caller: set(callees) for caller, callees in call_graph.items()}
    for callees in graph.values():
        if callees - procs:
            callees |= taken
    return graph


def _program_call_graph(program: "Program", taken) -> dict:
    """The lowered program's static call edges: direct targets
    (externals included), and the address-taken procedures ``taken`` at
    indirect call sites."""
    from ..analysis.guards import _direct_targets

    taken = set(taken)
    graph: dict = {}
    for name, proc in program.procedures.items():
        callees: set = set()
        for node in proc.call_nodes():
            callees |= _direct_targets(node) or taken
        graph[name] = callees
    return graph


def _compare(
    old_ir: dict, old_graph: dict, new_ir: dict, new_graph: dict
) -> StaleReport:
    """The staleness rule: which procedures of the ``new`` world must be
    recomputed when the ``old`` world's solution is reused.

    Each side is an ``ir`` record (:func:`program_ir_record`) and a call
    graph.  Dependents travel over the union of both graphs, each with
    its callback edges (an edge in either world can carry a stale
    summary up or a changed context down), and function-pointer
    widening fires from the two address-taken sets.
    """
    old_procs: dict = old_ir["procedures"]
    new_procs: dict = new_ir["procedures"]

    report = StaleReport()
    report.globals_changed = old_ir["globals"] != new_ir["globals"]
    report.changed = sorted(
        name
        for name, digest in new_procs.items()
        if name in old_procs and old_procs[name] != digest
    )
    report.added = sorted(set(new_procs) - set(old_procs))
    report.removed = sorted(set(old_procs) - set(new_procs))

    if report.globals_changed:
        report.stale = sorted(new_procs)
        return report

    roots = set(report.changed) | set(report.added) | set(report.removed)
    call_graph: dict = {}
    for ir, graph in ((old_ir, old_graph), (new_ir, new_graph)):
        for caller, callees in _with_callbacks(
            graph, ir["procedures"], ir["address_taken"]
        ).items():
            call_graph.setdefault(caller, set()).update(callees)

    # function-pointer widening (module docstring): a root that is
    # address-taken in either world, or a moved address-taken set, may
    # retarget any indirect call site
    old_taken = set(old_ir["address_taken"])
    new_taken = set(new_ir["address_taken"])
    widened: set = set()
    if roots and (roots & (old_taken | new_taken) or old_taken != new_taken):
        indirect = set(old_ir["indirect_callers"]) | set(new_ir["indirect_callers"])
        widened = indirect & set(new_procs)

    dependents = _dependents(call_graph, roots | widened) | widened
    report.dependents = sorted((dependents - roots) & set(new_procs))
    stale = (roots | dependents) & set(new_procs)
    report.stale = sorted(stale)
    report.clean = sorted(set(new_procs) - stale)
    return report


def compute_stale(store: dict, program: "Program") -> StaleReport:
    """Compare a store's ``ir`` record against a freshly lowered
    ``program`` and report the set of procedures whose PTFs must be
    recomputed (a repeated ``repro index``, the demand tier's probe).

    The comparison is pure digest work — the analysis engine never runs.
    The new world's call graph is the lowered program's static call
    edges: only the new program can name an *added* procedure.
    """
    current = program_ir_record(program)
    return _compare(
        store["ir"],
        store["call_graph"],
        current,
        _program_call_graph(program, current["address_taken"]),
    )


def compute_stale_between_stores(old_store: dict, new_store: dict) -> StaleReport:
    """Which procedures moved between two *store documents*.

    The hot-swap path of the serve daemon (``reload`` admin op) uses
    this to invalidate only the stale slice of the query LRU.  Both
    stores carry their ``ir`` records and call graphs, so the same rule
    as :func:`compute_stale` runs without lowering anything — pure
    recorded-digest work, safe under live traffic.
    """
    return _compare(
        old_store["ir"],
        old_store["call_graph"],
        new_store["ir"],
        new_store["call_graph"],
    )
