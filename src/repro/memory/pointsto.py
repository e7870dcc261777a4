"""Points-to functions: flow-sensitive maps from location sets to values.

At each statement a points-to function maps the location sets containing
pointers to the locations that may be reached through them (§3.3).  Two
interchangeable state representations implement the same interface:

* :class:`DenseState` — a full points-to map per flow-graph node.  Simple
  and obviously correct; used as the reference implementation and in the
  sparse-vs-dense ablation benchmark.
* :class:`SparseState` — the paper's scheme (§4.2): per-node *deltas*
  only, lookups answered by the nearest dominating assignment, φ-functions
  inserted dynamically at iterated dominance frontiers, and strong-update
  fences for unique locations (§4.3).

Both honour the same uniqueness rules: a *strong update* (overwriting the
destination's previous contents) happens only when the destination is a
single location set with no stride whose base is a unique block (§4.1).

Keys follow parameter subsumption lazily: whenever a location set's base is
an extended parameter that has been subsumed (§3.2), the key is normalized
to the representative parameter before use.

Sparse lookups (the hot path)
-----------------------------

Every dereference triggers ``lookup_overlapping``, which needs, for each
registered pointer location of the base block, the value recorded by the
nearest assignment that dominates the probe node.  :class:`SparseState`
answers that without walking the dominator tree.  It keeps two indices,
updated on every write:

* ``loc`` → nodes holding a def or φ for ``loc``;
* base block → nodes holding a strong def of a location on that base.

Each list is sorted by the node's dominator-tree preorder number
``dom_pre`` (:mod:`repro.ir.dominators`).  A node's dominators are
exactly the nodes whose ``[dom_pre, dom_post]`` interval contains its own,
and they form a chain, so scanning back from the probe's preorder position
the first entry whose interval contains the probe is the nearest
dominating def.  The probe node itself counts only for *inclusive* reads
(the value after it executes).  Reads of a unique location are fenced:
the nearest dominating strong def that covers the whole read kills the
history of every overlapping key, so a def above the fence answers EMPTY.
With no dominating def the procedure's initial value answers.
Unreachable probe nodes (``dom_pre < 0``, e.g. the exit of a procedure
that never returns) have no dominators and see only their own defs.

When the subsumption epoch moves, def keys are rewritten to their
representatives and both indices are rebuilt.

``lookup_overlapping`` memoizes its answers per node, keyed
``(loc, width, before, base.pointer_version)`` and partitioned *per base
block*: every answer depends only on entries whose key shares the probe's
base, so recording a def for ``loc`` drops just the partition of
``loc.base``.  Parameter subsumption and uniqueness downgrades are not
attributable to one base; they funnel through
:meth:`SparseState.mark_changed` and drop the whole memo (both are rare).
The overlapping-key list each read consults is cached separately, keyed
by the block's monotone ``pointer_version``, because the pointer-location
registry changes far more rarely than the points-to values do.
``lookup_cache=False`` bypasses both the memo and the key-list cache.

Call-dispatch read sets
-----------------------

The interprocedural layer memoizes a whole call transfer per caller
state (``docs/ALGORITHM.md``, "Call-site memo").  To know when a memoized
call is still valid, :class:`SparseState` stamps every write with the
base block it touched (``_written``: base uid -> ``change_counter`` at
the last write) and, between :meth:`SparseState.begin_reads` and
:meth:`SparseState.end_reads`, records every base it is read at together
with two numbers taken at the first read: that write stamp and the
block's ``pointer_version``.  ``renorm_version`` moves when a read could
change without any single base being written: on ``mark_changed`` and
when a subsumption actually moved a def key.  Outside a dispatch the read
hook is one ``is not None`` check.

Provenance
----------

When an :class:`repro.diagnostics.provenance.ProvenanceLog` is threaded
in (``AnalyzerOptions.provenance=True``), every state mutation that
records new points-to information — ``assign``, ``assign_phi``,
``set_initial`` — tags the written ``(location, values)`` entry with a
derivation record (the assigning node, initial-value fetch, summary
binding or φ-merge, plus the engine-provided source context), which the
``repro explain`` CLI walks back to source lines.  With provenance off
(the default) each hook is one ``is not None`` check.

Values are hash-consed (:func:`intern_values`; location sets are
canonical by construction) so that the equality checks behind dict probes
and change detection usually succeed on identity.  ``lookup_cache=False``
must produce bit-identical results — the memo is pure, asserted by the
property tests.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

from ..diagnostics import Metrics
from ..ir.dominators import iterated_frontier
from ..ir.nodes import MeetNode, Node
from . import blocks as _blocks
from .blocks import ExtendedParameter, MemoryBlock
from .locset import LocationSet

__all__ = [
    "Values",
    "DenseState",
    "SparseState",
    "normalize_loc",
    "normalize_values",
    "intern_values",
    "reset_interning",
    "values_intern_size",
]

#: A points-to value: the set of locations a pointer may target.
Values = frozenset  # frozenset[LocationSet]

EMPTY: frozenset = frozenset()

#: hash-cons table for points-to value sets; bounded to keep a long-lived
#: process (or a long test run) from accumulating dead blocks
_VALUES_INTERN: dict = {}
_VALUES_INTERN_CAP = 1 << 18

def intern_values(values: frozenset) -> frozenset:
    """Return the canonical instance of ``values`` (hash-consing).

    Interned value sets make the ``old != new`` change-detection compares
    and dict probes across the engine hit the identity fast path.
    """
    if not values:
        return EMPTY
    hit = _VALUES_INTERN.get(values)
    if hit is not None:
        return hit
    if len(_VALUES_INTERN) >= _VALUES_INTERN_CAP:
        _VALUES_INTERN.clear()
    _VALUES_INTERN[values] = values
    return values


def values_intern_size() -> int:
    """Live entry count of the global value-set hash-cons table.

    A memory gauge for the snapshot layer: the table is bounded by
    ``_VALUES_INTERN_CAP`` (it clears wholesale at the cap), so this also
    tells *how close* a run drove it to the flush threshold.
    """
    return len(_VALUES_INTERN)


def reset_interning() -> None:
    """Drop the global value-intern table and restart block uid numbering
    (see :func:`repro.memory.blocks.reset_uid_counter`).  Used by the
    benchmark harness and the equivalence tests to give every analysis an
    identical process state; never call it between analyses that share
    memory blocks."""
    _VALUES_INTERN.clear()
    _blocks.reset_uid_counter()


def normalize_loc(loc: LocationSet) -> LocationSet:
    """Rewrite a location set whose base parameter has been subsumed."""
    base = loc.base
    if base.subsumed_by is None:
        return loc
    return LocationSet(base.representative(), loc.offset, loc.stride)


def normalize_values(values: Iterable[LocationSet]) -> frozenset:
    if not isinstance(values, frozenset):
        values = frozenset(values)
    # fast path: nothing to rewrite — intern and return as-is
    for v in values:
        if v.base.subsumed_by is not None:
            return intern_values(frozenset(normalize_loc(x) for x in values))
    return intern_values(values)


def _register(loc: LocationSet) -> bool:
    """Register ``loc`` as a pointer-holding location on its block (§3.3)."""
    return loc.base.register_pointer_location(loc.offset, loc.stride)


def _index(table: dict, key: object, node: Node) -> None:
    """Add ``node`` to ``table[key]``, kept sorted by dominator preorder.

    Unreachable nodes (``dom_pre < 0``) dominate nothing and are left
    out; a node already present is not added twice.
    """
    pre = node.dom_pre
    if pre < 0:
        return
    entries = table.get(key)
    if entries is None:
        table[key] = [(pre, node.dom_post, node)]
        return
    i = bisect_left(entries, (pre,))
    if i == len(entries) or entries[i][2] is not node:
        entries.insert(i, (pre, node.dom_post, node))


class PointsToState:
    """Interface shared by the dense and sparse representations."""

    kind = "abstract"

    def __init__(
        self,
        entry: Node,
        lookup_cache: bool = True,
        metrics: Optional[Metrics] = None,
        provenance=None,
    ) -> None:
        self.entry = entry
        #: keys ever assigned by the procedure body (excludes pure initial
        #: entries); the PTF summary is built from these
        self.assigned_keys: set[LocationSet] = set()
        #: bumped whenever anything changes; drives the fixpoint loop *and*
        #: the lookup-cache invalidation generation
        self.change_counter = 0
        #: when False, every memoization layer is bypassed (ablation /
        #: ``AnalyzerOptions.lookup_cache=False``)
        self.lookup_cache = lookup_cache
        #: shared diagnostics sink; a private one when not threaded in
        self.metrics = metrics if metrics is not None else Metrics()
        #: optional shared :class:`repro.diagnostics.provenance.
        #: ProvenanceLog`; when None (the default) every provenance hook
        #: is a single ``is not None`` check — same contract as tracing
        self.provenance = provenance

    # -- initial values (procedure inputs, recorded at the entry node) --

    def set_initial(self, loc: LocationSet, values: Iterable[LocationSet]) -> None:
        raise NotImplementedError

    def get_initial(self, loc: LocationSet) -> Optional[frozenset]:
        raise NotImplementedError

    def initial_items(self) -> list[tuple[LocationSet, frozenset]]:
        raise NotImplementedError

    # -- transfer ---------------------------------------------------------

    def assign(
        self,
        loc: LocationSet,
        values: Iterable[LocationSet],
        node: Node,
        strong: bool,
        size: int = 4,
    ) -> bool:
        """Record ``loc -> values`` at ``node``; returns True on change.

        ``size`` is the byte width of the store: a strong update kills every
        overlapping location within it.
        """
        raise NotImplementedError

    def assign_phi(
        self, loc: LocationSet, values: Iterable[LocationSet], node: Node
    ) -> bool:
        """Record a φ result: replaces the recorded merge at a meet node but
        is not a strong update (it does not fence overlapping locations)."""
        return self.assign(loc, values, node, strong=False)

    def lookup(self, loc: LocationSet, node: Node, before: bool = True) -> frozenset:
        """Exact-key lookup of the values of ``loc`` visible at ``node``
        (before the node executes when ``before`` is True)."""
        raise NotImplementedError

    def lookup_overlapping(
        self, loc: LocationSet, node: Node, width: int = 1, before: bool = True
    ) -> frozenset:
        """Dereference semantics (§4.3): union the values of every
        registered pointer location overlapping ``loc``, respecting strong
        update fences for unique locations."""
        raise NotImplementedError

    def merge_at(self, node: Node, evaluated: set[int]) -> None:
        """Prepare the in-state of ``node`` from its evaluated predecessors."""
        raise NotImplementedError

    def finish_node(self, node: Node) -> None:
        """Commit a node's evaluation (change detection hook)."""
        return

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

    def note_reads(self, blocks: Iterable[MemoryBlock]) -> None:
        """Add ``blocks`` to the call-dispatch read set being recorded;
        a no-op for representations that never record one (calls are
        not memoized over them)."""
        return

    # -- memory accounting -------------------------------------------------

    def entry_count(self) -> int:
        """Assigned keys plus lazily fetched initial entries — the same
        size proxy the ``max_state_entries`` guard polls."""
        return len(self.assigned_keys) + len(getattr(self, "_initial", ()))

    def footprint(self) -> dict[str, int]:
        """Live per-representation size gauges (snapshot memory profile).

        Both representations report ``entries`` (the guard proxy) and
        ``initial``; each adds its own dominant structures — per-node map
        cells for the dense state, defs/φ/memo-partition entries for the
        sparse one.
        """
        return {"entries": self.entry_count(), "initial": len(getattr(self, "_initial", ()))}


# ---------------------------------------------------------------------------
# Dense representation
# ---------------------------------------------------------------------------


class DenseState(PointsToState):
    """Full per-node points-to maps (reference implementation)."""

    kind = "dense"

    def __init__(
        self,
        entry: Node,
        lookup_cache: bool = True,
        metrics: Optional[Metrics] = None,
        provenance=None,
    ) -> None:
        super().__init__(
            entry, lookup_cache=lookup_cache, metrics=metrics, provenance=provenance
        )
        self._initial: dict[LocationSet, frozenset] = {}
        #: node uid -> map at node exit
        self._out: dict[int, dict[LocationSet, frozenset]] = {}
        #: node uid -> map at node entry (after merging predecessors)
        self._in: dict[int, dict[LocationSet, frozenset]] = {}
        #: node uid -> the out map from the previous pass (change detection)
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

    def initial_items(self) -> list[tuple[LocationSet, frozenset]]:
        return list(self._initial.items())

    # -- maps ------------------------------------------------------------

    def _map_at(self, node: Node, before: bool) -> dict[LocationSet, frozenset]:
        if node is self.entry:
            return self._initial
        if before:
            return self._in.get(node.uid, {})
        return self._out.get(node.uid, self._in.get(node.uid, {}))

    def merge_at(self, node: Node, evaluated: set[int]) -> None:
        if node is self.entry:
            return
        merged: dict[LocationSet, frozenset] = {}
        for pred in node.preds:
            if pred.uid not in evaluated and pred is not self.entry:
                continue
            pmap = self._out.get(pred.uid)
            if pmap is None:
                pmap = self._initial if pred is self.entry else self._in.get(pred.uid, {})
            for key, vals in pmap.items():
                key = normalize_loc(key)
                vals = normalize_values(vals)
                old = merged.get(key)
                merged[key] = vals if old is None else intern_values(old | vals)
        self._in[node.uid] = merged
        # out starts as a copy of in; assign() then mutates it in place, and
        # finish_node compares against the previous pass's out map
        self._prev_out[node.uid] = self._out.get(node.uid)
        self._out[node.uid] = dict(merged)

    def finish_node(self, node: Node) -> None:
        if node is self.entry:
            return
        if self._out.get(node.uid) != self._prev_out.get(node.uid):
            self.mark_changed()

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
            if out.get(loc) != vals:
                out[loc] = vals
                changed = True
        else:
            old = out.get(loc, EMPTY)
            new = intern_values(old | vals)
            if new != old:
                out[loc] = new
                changed = True
        if changed:
            if strong:
                self.metrics.strong_updates += 1
            else:
                self.metrics.weak_updates += 1
            if self.provenance is not None:
                self.provenance.tag(loc, vals, node, strong)
        return changed

    def lookup(self, loc: LocationSet, node: Node, before: bool = True) -> frozenset:
        self.metrics.lookups += 1
        loc = normalize_loc(loc)
        table = self._map_at(node, before)
        hit = table.get(loc)
        if hit is None:
            # keys may have been recorded before their base was subsumed
            for key, vals in table.items():
                if normalize_loc(key) == loc:
                    hit = vals
                    break
        return normalize_values(hit or EMPTY)

    def lookup_overlapping(
        self, loc: LocationSet, node: Node, width: int = 1, before: bool = True
    ) -> frozenset:
        self.metrics.lookups += 1
        loc = normalize_loc(loc)
        result: set[LocationSet] = set()
        for key, vals in self._map_at(node, before).items():
            key_n = normalize_loc(key)
            if key_n.base is loc.base and loc.overlaps(key_n, width=width, other_width=1):
                result |= vals
        return normalize_values(result)

    def footprint(self) -> dict[str, int]:
        out = super().footprint()
        out["map_cells"] = sum(len(m) for m in self._in.values()) + sum(
            len(m) for m in self._out.values()
        )
        out["nodes_mapped"] = len(self._in)
        return out


# ---------------------------------------------------------------------------
# Sparse representation (the paper's §4.2 scheme)
# ---------------------------------------------------------------------------


class SparseState(PointsToState):
    """Per-node deltas + indexed dominating-def lookups + dynamic φ insertion.

    Only the points-to values that change at a node are recorded.  Looking
    up the value of a pointer finds the most recent assignment among the
    dominating flow graph nodes; meet nodes carry φ-functions (inserted at
    iterated dominance frontiers when a location is assigned) that combine
    the values from each predecessor (§4.2, Figure 9).

    The most recent dominating assignment comes from per-location indices
    ordered by dominator-tree preorder; see the module docstring.
    """

    kind = "sparse"

    def __init__(
        self,
        entry: Node,
        lookup_cache: bool = True,
        metrics: Optional[Metrics] = None,
        provenance=None,
    ) -> None:
        super().__init__(
            entry, lookup_cache=lookup_cache, metrics=metrics, provenance=provenance
        )
        self._initial: dict[LocationSet, frozenset] = {}
        #: node uid -> {loc: (values, strong, kill_size)}; kill_size is the
        #: byte width a strong update overwrote (0 for weak and φ entries)
        self._defs: dict[int, dict[LocationSet, tuple[frozenset, bool, int]]] = {}
        #: node uid -> φ locations attached to that (meet) node
        self.phis: dict[int, set[LocationSet]] = {}
        #: loc -> reachable nodes holding a def or φ for loc, as
        #: ``(dom_pre, dom_post, node)`` sorted by ``dom_pre``
        self._def_nodes: dict[LocationSet, list[tuple[int, int, Node]]] = {}
        #: base block -> reachable nodes that have held a strong def of a
        #: location on that base, in the same layout (a superset: the fence
        #: scan re-checks the def at each candidate)
        self._strong_nodes: dict[MemoryBlock, list[tuple[int, int, Node]]] = {}
        #: base uid -> {(loc, width, before, ptr_version): {node uid: values}};
        #: recording a def for ``loc`` drops only ``loc.base``'s partition
        self._overlap_cache: dict[int, dict[tuple, dict[int, frozenset]]] = {}
        #: (loc, width, pointer_version) -> overlapping registered keys;
        #: keyed by the block's monotone pointer_version, so *not* cleared
        #: on value changes — the registry grows far more rarely
        self._overlap_keys: dict[tuple, tuple[LocationSet, ...]] = {}
        #: snapshot of the global subsumption epoch; when it moves, def keys
        #: are renormalized and the indices and memo rebuilt (lazily — the
        #: state cannot observe ``subsumed_by`` assignments directly)
        self._keys_epoch = _blocks.subsumption_epoch()
        #: base uid -> ``change_counter`` at the last def/φ/initial write
        #: of a location on that base (absent: never written)
        self._written: dict[int, int] = {}
        #: bumped when lookups may answer differently with no base written:
        #: ``mark_changed`` and def-key renormalization
        self.renorm_version = 0
        #: the read set of the call dispatch being recorded, or None:
        #: base block -> (write stamp, pointer_version) at its first read
        self._reads = None

    # -- initial ---------------------------------------------------------

    def set_initial(self, loc: LocationSet, values: Iterable[LocationSet]) -> None:
        loc = normalize_loc(loc)
        vals = normalize_values(values)
        _register(loc)
        old = self._initial.get(loc)
        new = vals if old is None else intern_values(old | vals)
        if old != new:
            self._initial[loc] = new
            self._note_write(loc)
            if self.provenance is not None:
                self.provenance.tag_initial(loc, vals, self.entry)

    def get_initial(self, loc: LocationSet) -> Optional[frozenset]:
        loc = normalize_loc(loc)
        if self._reads is not None:
            self._note_read(loc.base)
        return self._initial.get(loc)

    def initial_items(self) -> list[tuple[LocationSet, frozenset]]:
        return list(self._initial.items())

    def merge_at(self, node: Node, evaluated: set[int]) -> None:
        # sparse states do not materialize merged maps; φ evaluation happens
        # when the meet node itself is evaluated (Figure 9)
        return

    # -- φ bookkeeping -----------------------------------------------------

    def phi_locations(self, node: Node) -> set[LocationSet]:
        return {normalize_loc(l) for l in self.phis.get(node.uid, ())}

    def _insert_phis(self, loc: LocationSet, node: Node) -> None:
        for meet in iterated_frontier([node]):
            locs = self.phis.setdefault(meet.uid, set())
            if loc not in locs:
                locs.add(loc)
                self.metrics.phi_insertions += 1
                # a pending φ is only visible to lookups once assign_phi
                # records its value (which invalidates), so bump the
                # fixpoint counter without dropping any cache partition
                self.change_counter += 1

    # -- transfer ---------------------------------------------------------

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
        defs = self._defs.setdefault(node.uid, {})
        old = defs.get(loc)
        if not strong and old is not None:
            vals = vals | old[0]
        if not strong:
            # a weak update must preserve what was already visible here
            vals = vals | self._search(loc, node, inclusive=False)
        new_entry = (intern_values(vals), strong, size if strong else 0)
        if old != new_entry:
            defs[loc] = new_entry
            if old is None:
                _index(self._def_nodes, loc, node)
            if strong:
                _index(self._strong_nodes, loc.base, node)
                self.metrics.strong_updates += 1
            else:
                self.metrics.weak_updates += 1
            if self.provenance is not None:
                self.provenance.tag(loc, new_entry[0], node, strong)
            self._note_write(loc)
            self._insert_phis(loc, node)
            return True
        return False

    def assign_phi(
        self, loc: LocationSet, values: Iterable[LocationSet], node: Node
    ) -> bool:
        """Record a φ merge: exact replacement, never a strong-update fence."""
        loc = normalize_loc(loc)
        vals = normalize_values(values)
        if vals:
            _register(loc)
        defs = self._defs.setdefault(node.uid, {})
        old = defs.get(loc)
        new_entry = (vals, False, 0)
        if old != new_entry:
            defs[loc] = new_entry
            if old is None:
                _index(self._def_nodes, loc, node)
            if self.provenance is not None:
                self.provenance.tag_phi(loc, vals, node)
            self._note_write(loc)
            self._insert_phis(loc, node)
            return True
        return False

    # -- lookups -----------------------------------------------------------

    def lookup(self, loc: LocationSet, node: Node, before: bool = True) -> frozenset:
        self.metrics.lookups += 1
        loc = normalize_loc(loc)
        return self._search(loc, node, inclusive=not before)

    # -- invalidation -------------------------------------------------------

    def _note_write(self, loc: LocationSet) -> None:
        """A def/φ/initial entry for ``loc`` changed: bump the fixpoint
        counter, stamp ``loc.base`` as written, and drop its overlap memo
        partition (memoized reads of other bases cannot depend on this
        entry)."""
        self.change_counter += 1
        uid = loc.base.uid
        self._written[uid] = self.change_counter
        self._overlap_cache.pop(uid, None)

    def mark_changed(self) -> None:
        """Non-local change (parameter subsumption, uniqueness downgrade):
        no single base owns the effect, so drop the whole overlap memo and
        rewrite def keys whose base parameter was subsumed (§3.2).  The
        ``_overlap_keys`` table survives: it depends only on the
        pointer-location registry, whose monotone version is part of its
        keys."""
        self.change_counter += 1
        self.renorm_version += 1
        self._overlap_cache.clear()
        self._renormalize_def_keys()
        self._keys_epoch = _blocks.subsumption_epoch()

    # -- call-dispatch read sets ---------------------------------------------

    def _note_read(self, base: MemoryBlock) -> None:
        reads = self._reads
        if base not in reads:
            reads[base] = (self._written.get(base.uid, 0), base.pointer_version)

    def note_reads(self, blocks: Iterable[MemoryBlock]) -> None:
        """Add ``blocks`` to the read set being recorded, if any (the
        interprocedural layer's reads of the pointer-location registry)."""
        if self._reads is not None:
            for base in blocks:
                self._note_read(base)

    def begin_reads(self) -> Optional[dict]:
        """Start recording a read set; returns the enclosing one, which
        :meth:`end_reads` restores."""
        outer = self._reads
        self._reads = {}
        return outer

    def end_reads(self, outer: Optional[dict]) -> tuple:
        """Stop recording and return the read set as a flat tuple
        ``(base, write stamp, pointer_version, ...)``.  Reads also count
        toward the enclosing recording, if any."""
        reads = self._reads
        self._reads = outer
        if outer is not None:
            for base, versions in reads.items():
                outer.setdefault(base, versions)
        return tuple(x for base, versions in reads.items() for x in (base, *versions))

    def read_version(self) -> int:
        """``renorm_version`` after catching up with pending subsumptions,
        so a subsumption the state has not yet observed still counts."""
        self._sync_keys()
        return self.renorm_version

    def reads_unchanged(self, record: tuple) -> bool:
        """Whether every base in a read set returned by :meth:`end_reads`
        still has the write stamp and pointer version it was read at."""
        written = self._written
        it = iter(record)
        for base, stamp, pointer_version in zip(it, it, it):
            if (
                base.pointer_version != pointer_version
                or written.get(base.uid, 0) != stamp
            ):
                return False
        return True

    def _sync_keys(self) -> None:
        """Catch up with subsumptions performed since the last lookup:
        renormalize def keys and drop the overlap memo.  Cheap when nothing
        happened (one module-attribute compare)."""
        epoch = _blocks._subsumption_epoch
        if self._keys_epoch != epoch:
            self._keys_epoch = epoch
            self._overlap_cache.clear()
            self._renormalize_def_keys()

    def _renormalize_def_keys(self) -> None:
        """Rewrite def keys recorded before their base was subsumed, and
        rebuild the dominating-def indices when any key moved.

        Exact-key probes then stay complete without a linear fallback scan.
        When the canonical key already has an entry it wins — an exact hit
        shadows any stale aliases — and among several stale aliases the
        first in insertion order is kept.
        """
        moved = False
        for defs in self._defs.values():
            stale = [k for k in defs if k.base.subsumed_by is not None]
            for k in stale:
                entry = defs.pop(k)
                k_n = normalize_loc(k)
                if k_n not in defs:
                    defs[k_n] = entry
                moved = True
        if not moved:
            return
        self.renorm_version += 1
        nodes = {e[2] for entries in self._def_nodes.values() for e in entries}
        self._def_nodes = {}
        self._strong_nodes = {}
        for node in nodes:
            for key, (_vals, strong, _kill) in self._defs[node.uid].items():
                _index(self._def_nodes, key, node)
                if strong:
                    _index(self._strong_nodes, key.base, node)

    # -- indexed dominator search -----------------------------------------

    def _search(
        self,
        loc: LocationSet,
        node: Node,
        inclusive: bool,
        fence: Optional[Node] = None,
    ) -> frozenset:
        """The value of ``loc`` from its nearest dominating def (§4.2).

        ``inclusive`` lets a def at ``node`` itself answer (the value after
        the node executes).  ``fence`` (a dominating strong-update node)
        bounds the search: defs at the fence itself are visible, anything
        strictly above it answers EMPTY.  With no dominating def the
        procedure's initial value answers.
        """
        self._sync_keys()
        if self._reads is not None:
            self._note_read(loc.base)
        if node.dom_pre < 0:
            # unreachable (e.g. the exit of a procedure that never
            # returns): no dominators, so only the node's own defs
            hit = self._defs.get(node.uid, {}).get(loc) if inclusive else None
            return EMPTY if hit is None else normalize_values(hit[0])
        found = self._nearest(self._def_nodes.get(loc), node, inclusive)
        if fence is not None and (found is None or found.dom_pre < fence.dom_pre):
            return EMPTY
        if found is None:
            return normalize_values(self._initial.get(loc, EMPTY))
        return normalize_values(self._defs[found.uid][loc][0])

    def _find_strong_fence(
        self, loc: LocationSet, node: Node, width: int, inclusive: bool = False
    ) -> Optional[Node]:
        """The nearest dominating strong update that overwrote the *entire*
        ``width``-byte read at ``loc`` (§4.3).

        Coverage of the full read range is required: a narrower strong
        update leaves the history of the uncovered bytes visible, exactly
        as the dense representation's per-key kill does.  ``inclusive``
        reads (the value *after* the node executes) also see a covering
        strong update at the node itself.
        """
        self._sync_keys()

        def covers(defs: dict) -> bool:
            return self._has_covering_strong_def(defs, loc, width)

        if node.dom_pre < 0:
            defs = self._defs.get(node.uid)
            return node if inclusive and defs and covers(defs) else None
        return self._nearest(self._strong_nodes.get(loc.base), node, inclusive, covers)

    def _nearest(
        self,
        entries: Optional[list[tuple[int, int, Node]]],
        node: Node,
        inclusive: bool,
        covers=None,
    ) -> Optional[Node]:
        """The indexed node nearest above reachable ``node`` on its
        dominator chain (``node`` itself only when ``inclusive``) whose
        defs satisfy ``covers``, if given.

        Every entry before the bisection point starts at or above ``node``
        in preorder, and dominators form a chain, so scanning back the
        first entry whose interval contains ``node``'s is the nearest.
        """
        if not entries:
            return None
        pre, post = node.dom_pre, node.dom_post
        i = bisect_left(entries, (pre + 1,) if inclusive else (pre,))
        steps = 0
        found: Optional[Node] = None
        while i:
            i -= 1
            steps += 1
            _pre, cand_post, cand = entries[i]
            if cand_post >= post and (covers is None or covers(self._defs[cand.uid])):
                found = cand
                break
        self.metrics.dom_walk_steps += steps
        return found

    @staticmethod
    def _has_covering_strong_def(
        defs: dict[LocationSet, tuple[frozenset, bool, int]],
        loc: LocationSet,
        width: int,
    ) -> bool:
        for key, (_vals, strong, kill_size) in defs.items():
            if not strong:
                continue
            key_n = normalize_loc(key)
            if key_n.base is not loc.base:
                continue
            if key_n.stride or loc.stride:
                # strong updates only target stride-0 unique sets (§4.1);
                # a strided read is never fully covered by one store
                continue
            if (
                key_n.offset <= loc.offset
                and key_n.offset + max(kill_size, 1) >= loc.offset + width
            ):
                return True
        return False

    def _overlapping_keys(self, loc: LocationSet, width: int) -> tuple[LocationSet, ...]:
        """Registered pointer locations of ``loc.base`` that a ``width``-byte
        read at ``loc`` can touch, cached per registry version."""
        base = loc.base
        cache_key = (loc, width, base.pointer_version)
        if self.lookup_cache:
            hit = self._overlap_keys.get(cache_key)
            if hit is not None:
                return hit
        keys: list[LocationSet] = []
        for offset, stride in sorted(base.pointer_locations):
            key = LocationSet(base, offset, stride)
            if loc.overlaps(key, width=width, other_width=1):
                keys.append(key)
        result = tuple(keys)
        if self.lookup_cache:
            self._overlap_keys[cache_key] = result
        return result

    def lookup_overlapping(
        self, loc: LocationSet, node: Node, width: int = 1, before: bool = True
    ) -> frozenset:
        metrics = self.metrics
        metrics.lookups += 1
        self._sync_keys()
        loc = normalize_loc(loc)
        if self._reads is not None:
            self._note_read(loc.base)
        by_node = None
        if self.lookup_cache:
            cache = self._overlap_cache.get(loc.base.uid)
            if cache is None:
                cache = self._overlap_cache[loc.base.uid] = {}
            cache_key = (loc, width, before, loc.base.pointer_version)
            by_node = cache.get(cache_key)
            if by_node is None:
                by_node = cache[cache_key] = {}
            hit = by_node.get(node.uid)
            if hit is not None:
                metrics.cache_hits += 1
                return hit
            metrics.cache_misses += 1
        fence: Optional[Node] = None
        if loc.is_unique:
            fence = self._find_strong_fence(
                loc, node, width=width, inclusive=not before
            )
        result: set[LocationSet] = set()
        for key in self._overlapping_keys(loc, width):
            result |= self._search(key, node, inclusive=not before, fence=fence)
        # normalize like DenseState.lookup_overlapping does: values recorded
        # before their base parameter was subsumed must not leak through
        out = normalize_values(frozenset(result))
        if by_node is not None:
            by_node[node.uid] = out
        return out

    def summary(self, exit_node: Node) -> dict[LocationSet, frozenset]:
        out: dict[LocationSet, frozenset] = {}
        for key in sorted(
            self.assigned_keys, key=lambda l: (l.base.uid, l.offset, l.stride)
        ):
            key_n = normalize_loc(key)
            vals = self._search(key_n, exit_node, inclusive=True)
            if vals:
                out[key_n] = vals
        return out

    def footprint(self) -> dict[str, int]:
        out = super().footprint()
        out["defs"] = sum(len(d) for d in self._defs.values())
        out["phis"] = sum(len(p) for p in self.phis.values())
        out["cache_entries"] = sum(
            len(by_node)
            for part in self._overlap_cache.values()
            for by_node in part.values()
        ) + len(self._overlap_keys)
        return out

