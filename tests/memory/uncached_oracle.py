"""The sparse representation with every memo out of the way.

:class:`UncachedSparseState` is :class:`repro.memory.pointsto.SparseState`
except that it empties its ``lookup_overlapping`` memo and its
overlapping-key cache before every probe, and never reports a recorded
call-dispatch read set as unchanged, so its caller never takes a
call-site memo hit.  Every answer is then computed from the defs alone.
A probe of an emptied memo is not counted: ``cache_hits`` and
``cache_misses`` stay zero, while ``lookups`` and ``dom_walk_steps``
count every read.  The memos are pure, so an analysis over this state
must produce the same digest as the memoized one
(:func:`tests.memory.dense_oracle.use_state` swaps it in)::

    with use_state(UncachedSparseState):
        result = analyze_source(src)
"""

from __future__ import annotations

from repro.ir.nodes import Node
from repro.memory.locset import LocationSet
from repro.memory.pointsto import SparseState


class UncachedSparseState(SparseState):
    """A :class:`SparseState` whose memos never answer."""

    def lookup_overlapping(
        self, loc: LocationSet, node: Node, width: int = 1, before: bool = True
    ) -> frozenset:
        self._overlap_cache.clear()
        self._overlap_keys.clear()
        out = super().lookup_overlapping(loc, node, width=width, before=before)
        self.metrics.cache_misses -= 1  # the memo it missed was emptied
        return out

    def reads_unchanged(self, record: tuple) -> bool:
        return False
