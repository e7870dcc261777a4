"""Partial transfer functions (§2) and parameter mappings.

A PTF summarizes one procedure *for one input alias pattern*.  Its pieces:

* the **extended parameters** it created, in creation order;
* the **initial points-to function**: ordered entries mapping input pointer
  locations to their initial targets (location sets over a single extended
  parameter each) — this *is* the input-domain specification (§2.2);
* the **function-pointer domain**: the values of parameters used as call
  targets (§5.1–5.2);
* the **final points-to function** at the procedure exit, in the
  parameterized name space, extracted from the PTF's points-to state;
* the **home context** where it was created, so iterative re-evaluation of
  the same call site updates the PTF in place instead of spawning PTFs for
  intermediate inputs (§5.2);
* for PTFs entered recursively, a second, merged input domain (§5.4).

A :class:`ParamMap` binds the PTF's name space to one calling context: the
actual values of the formals and the caller-space location sets each
extended parameter represents.  It is built while matching (§5.2) and then
drives summary translation back into the caller (§5.3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..ir.expr import LocalSymbol
from ..ir.nodes import CallNode, Node
from ..ir.program import Procedure
from ..memory.blocks import ExtendedParameter
from ..memory.locset import LocationSet
from ..memory.pointsto import SparseState, normalize_loc

__all__ = ["PTF", "ParamMap", "InitialEntry", "reset_ptf_counter"]

_ptf_counter = itertools.count()


def reset_ptf_counter() -> None:
    """Restart PTF uid numbering from zero.

    Stored alias tables and witnesses embed PTF uids, so two analyses of
    the same program produce byte-identical stores only when both start
    from a fresh counter.  Never call this between analyses that share
    PTF objects: uid collisions across a reset are only safe because
    nothing compares PTFs from different generations.
    """
    global _ptf_counter
    _ptf_counter = itertools.count()


@dataclass
class InitialEntry:
    """One ordered entry of the initial points-to function.

    ``source`` is a location set in the PTF name space whose initial
    contents were needed; ``targets`` are location sets based on (at most)
    one extended parameter, or empty when the input held no pointers.
    """

    source: LocationSet
    targets: frozenset  # frozenset[LocationSet]

    def normalized(self) -> "InitialEntry":
        return InitialEntry(
            normalize_loc(self.source),
            frozenset(normalize_loc(t) for t in self.targets),
        )


class ParamMap:
    """Binding of a PTF's name space to one calling context."""

    def __init__(self) -> None:
        #: formal symbol name -> caller-space pointer values of the actual
        self.actuals: dict[str, frozenset] = {}
        #: extended parameter -> caller-space location sets it represents
        self.param_values: dict[ExtendedParameter, frozenset] = {}

    def bind_param(self, param: ExtendedParameter, values: frozenset) -> None:
        self.param_values[param] = frozenset(values)

    def extend_param(self, param: ExtendedParameter, values: frozenset) -> None:
        old = self.param_values.get(param, frozenset())
        self.param_values[param] = old | values

    def lookup_param(self, param: ExtendedParameter) -> Optional[frozenset]:
        hit = self.param_values.get(param)
        if hit is not None:
            return hit
        rep = param.representative()
        if rep is not param:
            return self.param_values.get(rep)
        return None

    def caller_locations(self, loc: LocationSet) -> Optional[frozenset]:
        """Translate a param-based location set into caller space."""
        base = loc.base
        if not isinstance(base, ExtendedParameter):
            return None
        values = self.lookup_param(base.representative())
        if values is None:
            return None
        out = set()
        for v in values:
            shifted = v.with_offset(loc.offset) if loc.stride == 0 else v
            if loc.stride:
                shifted = shifted.with_offset(loc.offset).with_stride(loc.stride)
            out.add(shifted)
        return frozenset(out)

    def copy(self) -> "ParamMap":
        clone = ParamMap()
        clone.actuals = dict(self.actuals)
        clone.param_values = dict(self.param_values)
        return clone

    def __repr__(self) -> str:
        parts = [f"{p.name}->{{{', '.join(str(v) for v in vs)}}}" for p, vs in self.param_values.items()]
        return f"<ParamMap actuals={list(self.actuals)} params=[{'; '.join(parts)}]>"


class PTF:
    """A partial transfer function for one procedure."""

    def __init__(
        self,
        proc: Procedure,
        metrics=None,
        provenance=None,
    ) -> None:
        self.uid = next(_ptf_counter)
        self.proc = proc
        #: shared diagnostics sink (``Analyzer.metrics``); every state this
        #: PTF creates (including after ``reset``) reports into it
        self.metrics = metrics
        #: optional shared derivation log (``Analyzer.provenance``)
        self.provenance = provenance
        self.state: SparseState = self._new_state()
        #: extended parameters in creation order (§5.2 compares in order)
        self.params: list[ExtendedParameter] = []
        #: ordered initial points-to entries (the input domain)
        self.initial_entries: list[InitialEntry] = []
        #: parameters used as call targets -> the procedures they may name
        #: (frozenset of procedure names; None entry means unresolvable)
        self.fnptr_domain: dict[ExtendedParameter, frozenset] = {}
        #: (call node uid, caller PTF uid) where this PTF was created
        self.home: Optional[tuple[int, int]] = None
        #: the ParamMap of the context being (re)analyzed; lazy initial-value
        #: fetches go through it
        self.current_map: Optional[ParamMap] = None
        #: global name -> the extended parameter representing it here (§2.2)
        self.global_params: dict[str, ExtendedParameter] = {}
        #: count of distinct pointer sources per parameter (uniqueness, §4.1)
        self.param_sources: dict[ExtendedParameter, set[LocationSet]] = {}
        #: set when this PTF sits at the head of a recursive cycle (§5.4)
        self.is_recursive = False
        #: head-PTF uid -> summary generation consumed (recursion fixpoint)
        self.recursive_deps: dict[int, int] = {}
        #: the merged inputs of all recursive call sites — the second input
        #: domain of §5.4, kept apart from the non-recursive context
        self.recursive_domain: dict[str, tuple] = {}
        #: snapshot of block pointer-location versions among the inputs,
        #: used to detect that a PTF must be extended (§5.2)
        self.pointer_snapshot: dict[int, int] = {}
        #: cached final summary + version for change detection
        self._summary_cache: Optional[dict] = None
        self._summary_version = -1
        self.summary_generation = 0
        self.analyzing = False
        #: bumped by ``reset``: a callee fingerprint tells a wiped PTF from
        #: the one it was (the state object is replaced)
        self.resets = 0
        #: the call-site memo of this PTF's body: (call node uid, callee,
        #: multiple, recursive head uid or -1) -> (renorm version, param
        #: count, callee fingerprint, read set); see
        #: ``InterproceduralMixin._call_internal``
        self.call_memo: dict[tuple, tuple] = {}

    def _new_state(self) -> SparseState:
        """The one place a PTF's points-to state is built; the test
        oracles replace it to run a whole analysis over another state."""
        return SparseState(
            self.proc.entry, metrics=self.metrics, provenance=self.provenance
        )

    # -- parameters -------------------------------------------------------

    def new_param(self, hint: str, global_block=None) -> ExtendedParameter:
        name = f"{len(self.params) + 1}_{hint}"
        param = ExtendedParameter(name, self.proc.name, global_block=global_block)
        param.order = len(self.params)
        self.params.append(param)
        return param

    def add_initial_entry(self, source: LocationSet, targets: frozenset) -> None:
        self.initial_entries.append(InitialEntry(source, targets))
        self.state.set_initial(source, targets)

    def note_param_source(self, param: ExtendedParameter, source: LocationSet) -> None:
        """Track which locations point at ``param`` for uniqueness (§4.1)."""
        sources = self.param_sources.setdefault(param, set())
        sources.add(source)

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict[LocationSet, frozenset]:
        if self._summary_version != self.state.change_counter:
            new = self.state.summary(self.proc.exit)
            if new != self._summary_cache:
                self.summary_generation += 1
            self._summary_cache = new
            self._summary_version = self.state.change_counter
        return self._summary_cache or {}

    # -- diagnostics ------------------------------------------------------

    def alias_pattern(self) -> str:
        """A compact, stable rendering of the input alias pattern this PTF
        summarizes (its ordered initial points-to entries, §2.2).  Used by
        the tracer so ``ptf.reuse`` / ``ptf.create`` events say *which*
        pattern matched, and by the explain CLI."""
        parts = []
        for raw in self.initial_entries:
            entry = raw.normalized()
            targets = ",".join(sorted(str(t) for t in entry.targets)) or "-"
            parts.append(f"{entry.source}->{{{targets}}}")
        return "; ".join(parts) if parts else "<empty>"

    # -- maintenance ------------------------------------------------------

    def snapshot_pointer_versions(self, map_: ParamMap) -> None:
        for values in map_.param_values.values():
            for loc in values:
                self.pointer_snapshot[loc.base.uid] = loc.base.pointer_version

    def inputs_gained_pointers(self, map_: ParamMap) -> bool:
        """Whether input blocks gained registered pointer locations since
        this PTF was created (then the PTF must be extended, §5.2)."""
        for values in map_.param_values.values():
            for loc in values:
                old = self.pointer_snapshot.get(loc.base.uid)
                if old is None or loc.base.pointer_version > old:
                    return True
        return False

    def reset(self) -> None:
        """Wipe the PTF for a home-context reanalysis (§5.2).

        The object identity (and home) survive so the caller keeps updating
        this PTF instead of allocating one per fixpoint iteration.
        """
        self.state = self._new_state()
        self.params = []
        self.initial_entries = []
        self.fnptr_domain = {}
        self.global_params = {}
        self.param_sources = {}
        self.pointer_snapshot = {}
        self.recursive_domain = {}
        self._summary_cache = None
        self._summary_version = -1
        self.resets += 1
        self.call_memo = {}

    def describe(self) -> str:
        lines = [f"PTF#{self.uid} for {self.proc.name}"]
        for entry in self.initial_entries:
            tgts = ", ".join(str(t) for t in entry.targets) or "-"
            lines.append(f"  initial {entry.source} -> {{{tgts}}}")
        for loc, vals in sorted(
            self.summary().items(), key=lambda kv: (kv[0].base.name, kv[0].offset)
        ):
            vs = ", ".join(str(v) for v in sorted(vals, key=lambda l: (l.base.name, l.offset)))
            lines.append(f"  final   {loc} -> {{{vs}}}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<PTF#{self.uid} {self.proc.name} params={len(self.params)}>"
