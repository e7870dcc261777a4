"""The dense reference representation of a points-to function.

:class:`DenseState` keeps a full map at the entry and exit of every
flow-graph node, from each location to the definition reaching it:
merges union the values of differing definitions, strong updates delete
every overlapping key, and lookups read the map.  It is slow and
obviously correct — the oracle the sparse representation
(:class:`repro.memory.pointsto.SparseState`, the paper's §4.2 scheme) is
checked against.  It is not part of the product.

It speaks the interface the analyzer drives a state through.  The
call-site memo's read-set hooks are stubs whose ``reads_unchanged`` is
always False, so a dense caller never takes a call-memo hit, and
``phi_locations`` is always empty, so meet nodes merge maps in
:meth:`DenseState.merge_at` instead of evaluating φ-functions.

:func:`use_state` swaps the class :meth:`repro.analysis.ptf.PTF._new_state`
builds, so a whole analysis runs over another representation::

    with use_state(DenseState):
        result = analyze_source(src)

:func:`both_kinds` analyzes one source over both representations.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

from repro import analyze_source
from repro.analysis.ptf import PTF
from repro.diagnostics.metrics import Metrics
from repro.ir.nodes import Node
from repro.memory.locset import LocationSet
from repro.memory.pointsto import (
    EMPTY,
    _register,
    intern_values,
    normalize_loc,
    normalize_values,
)


@contextmanager
def use_state(cls) -> Iterator[None]:
    """Build every PTF state created inside the block as ``cls``."""
    original = PTF._new_state

    def new_state(ptf: PTF):
        return cls(ptf.proc.entry, metrics=ptf.metrics, provenance=ptf.provenance)

    PTF._new_state = new_state
    try:
        yield
    finally:
        PTF._new_state = original


def both_kinds(src: str, options=None) -> list:
    """``[sparse result, dense result]`` for one C source."""
    sparse = analyze_source(src, options=options)
    with use_state(DenseState):
        dense = analyze_source(src, options=options)
    return [sparse, dense]


class DenseState:
    """Full per-node points-to maps (reference implementation).

    Every node's entry and exit map names, for each location, the
    definition that reaches it: the entry (the initial value), a node
    that assigned it, or a merge where different definitions meet.  The
    values live once per definition and are recomputed from the node's
    inputs on every pass.  Where one definition reaches a loop around its
    back edge, the edge carries that definition, not a copy of its
    values: when a strong update later removes a value from it, the loop
    sees the removal instead of feeding the old value back around.
    Concrete execution never sees such a value, and neither does the
    sparse state, whose φs sit only where different definitions meet.

    This follows the sparse state's own rule for where merges sit, so it
    does not check that rule independently.  Merge definitions that reach
    each other through back edges (an outer and an inner loop header) can
    still keep a removed value alive around the cycle: each unions the
    other's values, so a value in both stays in both.
    """

    def __init__(
        self,
        entry: Node,
        metrics: Optional[Metrics] = None,
        provenance=None,
    ) -> None:
        self.entry = entry
        #: keys ever assigned by the procedure body (excludes pure initial
        #: entries); the PTF summary is built from these
        self.assigned_keys: set[LocationSet] = set()
        #: bumped whenever anything changes; drives the fixpoint loop
        self.change_counter = 0
        self.metrics = metrics if metrics is not None else Metrics()
        self.provenance = provenance
        self._initial: dict[LocationSet, frozenset] = {}
        #: definition -> its values; a definition is ``(node uid, location,
        #: is-merge)``, the entry's are ``(entry uid, location, False)``
        self._values: dict[tuple, frozenset] = {}
        #: node uid -> location -> definition reaching the node's exit
        self._out: dict[int, dict[LocationSet, tuple]] = {}
        #: node uid -> location -> definition reaching the node's entry
        self._in: dict[int, dict[LocationSet, tuple]] = {}
        #: node uid -> the exit map's values in the previous pass
        self._prev_out: dict[int, Optional[dict]] = {}

    # -- initial ----------------------------------------------------------

    def set_initial(self, loc: LocationSet, values: Iterable[LocationSet]) -> None:
        loc = normalize_loc(loc)
        vals = normalize_values(values)
        _register(loc)
        old = self._initial.get(loc)
        # compare the *union* against the old entry: re-recording values
        # already present must not mark the state changed, or redundant
        # set_initial calls trigger spurious extra fixpoint passes
        new = vals if old is None else intern_values(old | vals)
        if old != new:
            self._initial[loc] = new
            self.mark_changed()
            if self.provenance is not None:
                self.provenance.tag_initial(loc, vals, self.entry)

    def get_initial(self, loc: LocationSet) -> Optional[frozenset]:
        return self._initial.get(normalize_loc(loc))

    # -- maps ------------------------------------------------------------

    def _value(self, ref: tuple) -> frozenset:
        if ref[0] == self.entry.uid:
            return self._initial.get(ref[1], EMPTY)
        return self._values.get(ref, EMPTY)

    def _refs_at(self, node: Node, before: bool) -> dict[LocationSet, tuple]:
        if node is self.entry:
            return {key: (node.uid, key, False) for key in self._initial}
        if before:
            return self._in.get(node.uid, {})
        return self._out.get(node.uid, self._in.get(node.uid, {}))

    def merge_at(self, node: Node, evaluated: set[int]) -> None:
        if node is self.entry:
            return
        # the previous pass's values, before this merge rewrites them
        self._prev_out[node.uid] = self._resolved_out(node.uid)
        reaching: dict[LocationSet, set] = {}
        for pred in node.preds:
            if pred.uid not in evaluated and pred is not self.entry:
                continue
            for key, ref in self._refs_at(pred, before=False).items():
                reaching.setdefault(normalize_loc(key), set()).add(ref)
        merged: dict[LocationSet, tuple] = {}
        for key, refs in reaching.items():
            if len(refs) == 1:
                merged[key] = next(iter(refs))
                continue
            # different definitions meet here: a merge definition holds
            # the union of their current values
            ref = (node.uid, key, True)
            vals = EMPTY
            for r in refs:
                vals = intern_values(vals | normalize_values(self._value(r)))
            self._values[ref] = vals
            merged[key] = ref
        self._in[node.uid] = merged
        # out starts as a copy of in; assign() then rebinds locations to
        # this node's definitions, and finish_node compares the values
        # against the previous pass's
        self._out[node.uid] = dict(merged)

    def _resolved_out(self, uid: int) -> Optional[dict]:
        refs = self._out.get(uid)
        if refs is None:
            return None
        return {key: self._value(ref) for key, ref in refs.items()}

    def finish_node(self, node: Node) -> None:
        if node is self.entry:
            return
        if self._resolved_out(node.uid) != self._prev_out.get(node.uid):
            self.mark_changed()

    def phi_locations(self, node: Node) -> set[LocationSet]:
        """None: :meth:`merge_at` already merged the predecessors."""
        return set()

    def assign(
        self,
        loc: LocationSet,
        values: Iterable[LocationSet],
        node: Node,
        strong: bool,
        size: int = 4,
    ) -> bool:
        loc = normalize_loc(loc)
        vals = normalize_values(values)
        if vals:
            _register(loc)
        self.assigned_keys.add(loc)
        out = self._out.setdefault(node.uid, dict(self._in.get(node.uid, {})))
        old = out.get(loc)
        visible = None if old is None else self._value(old)
        changed = False
        if strong:
            # a strong update overwrites every location the write covers
            doomed = [
                k
                for k in out
                if k.base is loc.base
                and k != loc
                and loc.overlaps(k, width=max(size, 1), other_width=1)
            ]
            for k in doomed:
                del out[k]
                changed = True
            new = vals
        else:
            new = vals if visible is None else intern_values(visible | vals)
        if visible != new:
            changed = True
        ref = (node.uid, loc, False)
        self._values[ref] = new
        out[loc] = ref
        if changed:
            if strong:
                self.metrics.strong_updates += 1
            else:
                self.metrics.weak_updates += 1
            if self.provenance is not None:
                self.provenance.tag(loc, vals, node, strong)
        return changed

    def assign_phi(
        self, loc: LocationSet, values: Iterable[LocationSet], node: Node
    ) -> bool:
        return self.assign(loc, values, node, strong=False)

    def lookup(self, loc: LocationSet, node: Node, before: bool = True) -> frozenset:
        self.metrics.lookups += 1
        loc = normalize_loc(loc)
        table = self._refs_at(node, before)
        ref = table.get(loc)
        if ref is None:
            # keys may have been recorded before their base was subsumed
            for key, r in table.items():
                if normalize_loc(key) == loc:
                    ref = r
                    break
        return normalize_values(self._value(ref) if ref is not None else EMPTY)

    def lookup_overlapping(
        self, loc: LocationSet, node: Node, width: int = 1, before: bool = True
    ) -> frozenset:
        self.metrics.lookups += 1
        loc = normalize_loc(loc)
        result: set[LocationSet] = set()
        for key, ref in self._refs_at(node, before).items():
            key_n = normalize_loc(key)
            if key_n.base is loc.base and loc.overlaps(key_n, width=width, other_width=1):
                result |= self._value(ref)
        return normalize_values(result)

    def summary(self, exit_node: Node) -> dict[LocationSet, frozenset]:
        """The final points-to function over assigned keys at the exit."""
        out: dict[LocationSet, frozenset] = {}
        for key in sorted(self.assigned_keys, key=lambda l: (l.base.uid, l.offset, l.stride)):
            key_n = normalize_loc(key)
            vals = self.lookup(key_n, exit_node, before=True)
            if vals:
                out[key_n] = vals
        return out

    def mark_changed(self) -> None:
        self.change_counter += 1

    # -- call-memo read sets: recorded as empty, never valid ---------------

    def note_reads(self, blocks) -> None:
        return

    def begin_reads(self) -> None:
        return None

    def end_reads(self, outer) -> tuple:
        return ()

    def read_version(self) -> int:
        return 0

    def reads_unchanged(self, record: tuple) -> bool:
        return False

    # -- memory accounting -------------------------------------------------

    def entry_count(self) -> int:
        return len(self.assigned_keys) + len(self._initial)

    def footprint(self) -> dict[str, int]:
        out = {"entries": self.entry_count(), "initial": len(self._initial)}
        out["map_cells"] = sum(len(m) for m in self._in.values()) + sum(
            len(m) for m in self._out.values()
        )
        out["nodes_mapped"] = len(self._in)
        return out
