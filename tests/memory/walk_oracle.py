"""Reference dominator walks for :class:`repro.memory.pointsto.SparseState`.

The sparse state answers lookups from indices ordered by dominator-tree
preorder.  These functions are the paper's literal §4.2 search instead:
start at the probe node and follow ``idom`` links up to the entry,
stopping at the first node that holds a def.  They read the state's
``_defs`` and ``_initial`` tables directly and keep no memo, so they are
slow and obviously right — the oracle the interval answers are checked
against.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.nodes import Node
from repro.memory.locset import LocationSet
from repro.memory.pointsto import EMPTY, SparseState, normalize_values


def search_walk(
    state: SparseState,
    loc: LocationSet,
    node: Node,
    inclusive: bool,
    fence: Optional[Node] = None,
) -> frozenset:
    """The value of ``loc`` from the nearest def on ``node``'s dominator
    chain (``node`` itself only when ``inclusive``).  Defs at ``fence`` are
    visible; reaching it without a def answers EMPTY.  Reaching the entry
    answers the initial value."""
    state._sync_keys()
    n: Optional[Node] = node
    first = True
    while n is not None:
        if not first or inclusive:
            hit = state._defs.get(n.uid, {}).get(loc)
            if hit is not None:
                return normalize_values(hit[0])
        if fence is not None and n is fence:
            return EMPTY
        if n is state.entry:
            return normalize_values(state._initial.get(loc, EMPTY))
        first = False
        n = n.idom
    return EMPTY


def fence_walk(
    state: SparseState,
    loc: LocationSet,
    node: Node,
    width: int,
    inclusive: bool = False,
) -> Optional[Node]:
    """The nearest node on ``node``'s dominator chain holding a strong def
    that covers the whole ``width``-byte read at ``loc``."""
    state._sync_keys()
    n: Optional[Node] = node
    first = True
    while n is not None:
        if not first or inclusive:
            defs = state._defs.get(n.uid)
            if defs is not None and state._has_covering_strong_def(defs, loc, width):
                return n
        if n is state.entry:
            return None
        first = False
        n = n.idom
    return None
