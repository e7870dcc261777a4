"""Property: indexed interval lookups equal the literal dominator walks.

:class:`SparseState` answers each lookup with the deepest indexed def node
whose dominance interval contains the probe node.  Hypothesis builds
random flow graphs — branching, joins, back edges and unreachable nodes,
so the dominator tree is far from a chain — records random defs, φs,
initial values and an optional mid-sequence parameter subsumption, and
checks at every node that

* inclusive and exclusive searches equal :func:`search_walk`,
* searches bounded by every fence on the probe's dominator chain equal the
  fenced walk,
* strong-update fences equal :func:`fence_walk` for reads of width 1/4/8,
* ``lookup_overlapping`` with and without the memo equals the union of
  fenced walks over the overlapping registered keys.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.dominators import finalize_graph
from repro.ir.nodes import BranchNode, EntryNode
from repro.memory.blocks import ExtendedParameter, HeapBlock, LocalBlock
from repro.memory.locset import LocationSet
from repro.memory.pointsto import SparseState, normalize_loc, normalize_values

from .walk_oracle import fence_walk, search_walk


class FakeProc:
    name = "fake"


@st.composite
def flow_graphs(draw):
    """(entry, every node): a random spanning tree from the entry plus
    random extra edges (forward, cross and back), and a few unreachable
    nodes with edges into the graph."""
    proc = FakeProc()
    entry = EntryNode(proc)
    reachable = [entry] + [BranchNode(proc) for _ in range(draw(st.integers(1, 9)))]
    for i in range(1, len(reachable)):
        reachable[draw(st.integers(0, i - 1))].add_succ(reachable[i])
    last = len(reachable) - 1
    edges = st.tuples(st.integers(0, last), st.integers(1, last))
    for a, b in draw(st.lists(edges, max_size=last + 2)):
        reachable[a].add_succ(reachable[b])
    dead = [BranchNode(proc) for _ in range(draw(st.integers(0, 2)))]
    for d in dead:
        d.add_succ(reachable[draw(st.integers(1, last))])
    finalize_graph(entry)
    return entry, reachable + dead


def make_pool():
    s = LocalBlock("s", "fake", size=8)
    h = HeapBlock("site")
    p1 = ExtendedParameter("1_p", "fake")
    p2 = ExtendedParameter("2_p", "fake")
    targets = [
        LocationSet(LocalBlock("t1", "fake"), 0, 0),
        LocationSet(LocalBlock("t2", "fake"), 0, 0),
        LocationSet(p1, 0, 0),
    ]
    write_locs = [
        LocationSet(s, 0, 0),
        LocationSet(s, 4, 0),
        LocationSet(s, 0, 1),
        LocationSet(h, 0, 0),
        LocationSet(p1, 0, 0),
        LocationSet(p2, 0, 0),
    ]
    return write_locs, targets, p1, p2


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["assign", "phi", "initial"]),
        st.integers(0, 99),  # node pick
        st.integers(0, 5),  # loc pick
        st.sets(st.integers(0, 2), max_size=3),  # value pick
        st.booleans(),  # want strong
        st.sampled_from([1, 4, 8]),  # strong kill size
    ),
    min_size=1,
    max_size=16,
)


def dominator_chain(node):
    """``node`` and its strict dominators, nearest first."""
    chain = []
    while node is not None:
        chain.append(node)
        node = node.idom
    return chain


def overlapping_walk(state, loc, node, width, before):
    """``lookup_overlapping`` rebuilt from the reference walks."""
    loc = normalize_loc(loc)
    fence = None
    if loc.is_unique:
        fence = fence_walk(state, loc, node, width, inclusive=not before)
    result = set()
    for offset, stride in sorted(loc.base.pointer_locations):
        key = LocationSet(loc.base, offset, stride)
        if loc.overlaps(key, width=width, other_width=1):
            result |= search_walk(state, key, node, inclusive=not before, fence=fence)
    return normalize_values(frozenset(result))


@settings(max_examples=150, deadline=None)
@given(
    graph=flow_graphs(),
    ops=ops_strategy,
    subsume_at=st.one_of(st.none(), st.integers(0, 16)),
)
def test_interval_answers_equal_walk_answers(graph, ops, subsume_at):
    entry, nodes = graph
    write_locs, targets, p1, p2 = make_pool()
    cached = SparseState(entry, lookup_cache=True)
    plain = SparseState(entry, lookup_cache=False)
    for i, (kind, node_pick, loc_pick, val_pick, want_strong, size) in enumerate(ops):
        if i == subsume_at:
            p1.subsumed_by = p2
        node = nodes[node_pick % len(nodes)]
        loc = write_locs[loc_pick]
        values = frozenset(targets[j] for j in sorted(val_pick))
        for state in (cached, plain):
            if kind == "initial":
                state.set_initial(loc, values)
            elif kind == "phi":
                state.assign_phi(loc, values, node)
            else:
                strong = want_strong and normalize_loc(loc).is_unique
                state.assign(loc, values, node, strong=strong, size=size)
    if subsume_at is not None and subsume_at >= len(ops):
        p1.subsumed_by = p2

    probes = [normalize_loc(l) for l in write_locs]
    for node in nodes:
        chain = dominator_chain(node)
        for loc in probes:
            for inclusive in (True, False):
                want = search_walk(plain, loc, node, inclusive)
                assert plain._search(loc, node, inclusive) == want
                assert cached._search(loc, node, inclusive) == want
                for fence in chain:
                    assert plain._search(loc, node, inclusive, fence=fence) == (
                        search_walk(plain, loc, node, inclusive, fence=fence)
                    )
                for width in (1, 4, 8):
                    assert plain._find_strong_fence(loc, node, width, inclusive) is (
                        fence_walk(plain, loc, node, width, inclusive)
                    )
            for width in (1, 4, 8):
                for before in (True, False):
                    want = overlapping_walk(plain, loc, node, width, before)
                    assert plain.lookup_overlapping(loc, node, width, before) == want
                    assert cached.lookup_overlapping(loc, node, width, before) == want
