"""Property test: dense and sparse states agree on randomized sequences.

Hypothesis drives random assignment/φ sequences over linear and diamond
flow graphs and checks that

* the dense oracle (:mod:`tests.memory.dense_oracle`) and ``SparseState``
  return identical ``lookup``, ``lookup_overlapping`` and ``summary``
  results at every node,
* the memoized sparse state answers like the uncached one
  (:mod:`tests.memory.uncached_oracle`) — including when lookups are
  interleaved with the writes, which exercises invalidation rather than
  just cold-cache warmup,
* an optional parameter subsumption mid-sequence does not break either
  equivalence.

The graph kinds go beyond chains: nested diamonds, a loop with a back
edge, and a procedure whose exit is unreachable.  Their dominator trees
branch, so a def on one branch must stay invisible to its sibling, and an
unreachable exit sees nothing.  Loop kinds replay twice, because a value
carried by a back edge reaches the header's φ only on the second pass.

This is the state-level counterpart of ``test_property.py`` (which
compares whole analyses over generated C sources): it reaches operation
interleavings the evaluator never produces, which is exactly where a
stale-cache bug would hide.

The generated operations stay inside the domain over which the two
representations promise equivalence, mirroring what the evaluator emits:
strong updates are word-sized (``size=4``) at word-aligned stride-0
locations, and writes never go through the strided whole-block set (the
dense representation models a covering strong update by *deleting* the
overlapping entries — precise for reads the update covers, exactly like
the sparse fence — at the cost of the uncovered-read history the sparse
walk retains; mixed-width kills and strided entries answer differently
there by design).  Strided and unaligned location sets still appear as
*probes*, and reads of width 1/4/8 run against word-sized updates, so the
fence-coverage logic is exercised from both sides.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.dominators import finalize_graph
from repro.ir.nodes import BranchNode, EntryNode, ExitNode, MeetNode
from repro.memory.blocks import ExtendedParameter, HeapBlock, LocalBlock
from repro.memory.locset import LocationSet
from repro.memory.pointsto import SparseState

from ..memory.dense_oracle import DenseState
from ..memory.uncached_oracle import UncachedSparseState


class FakeProc:
    name = "fake"


class Graph:
    """A finalized flow graph and how the test replays it.

    ``order`` lists the reachable nodes with every forward edge going
    left to right (the replay order); ops land on its nodes other than the
    entry, the exit and meets, as in the evaluator.  ``probes`` is every
    node but the entry, unreachable ones included; ``passes`` is the
    number of replays.
    """

    def __init__(self, entry, order, meets, exit_, probes=None, passes=1):
        finalize_graph(entry)
        self.entry, self.order, self.meets, self.exit = entry, order, meets, exit_
        self.assignable = [n for n in order if n not in (entry, exit_, *meets)]
        self.probes = probes if probes is not None else order[1:]
        self.passes = passes


def _chain(*nodes):
    for a, b in zip(nodes, nodes[1:]):
        a.add_succ(b)


def linear_graph(n):
    proc = FakeProc()
    entry = EntryNode(proc)
    nodes = [BranchNode(proc) for _ in range(n)]
    exit_ = ExitNode(proc)
    _chain(entry, *nodes, exit_)
    return Graph(entry, [entry, *nodes, exit_], [], exit_)


def diamond_graph():
    proc = FakeProc()
    entry, exit_ = EntryNode(proc), ExitNode(proc)
    branch, left, right, tail = (BranchNode(proc) for _ in range(4))
    meet = MeetNode(proc)
    _chain(entry, branch, left, meet, tail, exit_)
    _chain(branch, right, meet)
    return Graph(entry, [entry, branch, left, right, meet, tail, exit_], [meet], exit_)


def nested_diamond_graph():
    """An outer diamond whose left arm holds an inner diamond."""
    proc = FakeProc()
    entry, exit_ = EntryNode(proc), ExitNode(proc)
    b0, left, b1, ll, lr, l2, right, tail = (BranchNode(proc) for _ in range(8))
    m1, m0 = MeetNode(proc), MeetNode(proc)
    _chain(entry, b0, left, b1, ll, m1, l2, m0, tail, exit_)
    _chain(b1, lr, m1)
    _chain(b0, right, m0)
    order = [entry, b0, left, b1, ll, lr, m1, l2, right, m0, tail, exit_]
    return Graph(entry, order, [m1, m0], exit_)


def loop_graph():
    """entry -> pre -> head -> body -> latch -> head (back edge); head -> after."""
    proc = FakeProc()
    entry, exit_, head = EntryNode(proc), ExitNode(proc), MeetNode(proc)
    pre, body, latch, after = (BranchNode(proc) for _ in range(4))
    _chain(entry, pre, head, body, latch, head)
    _chain(head, after, exit_)
    order = [entry, pre, head, body, latch, after, exit_]
    return Graph(entry, order, [head], exit_, passes=2)


def unreachable_exit_graph():
    """A procedure that never returns: its exit hangs off a dead node."""
    proc = FakeProc()
    entry, exit_, head = EntryNode(proc), ExitNode(proc), MeetNode(proc)
    pre, body, dead = (BranchNode(proc) for _ in range(3))
    _chain(entry, pre, head, body, head)
    _chain(dead, exit_)
    probes = [pre, head, body, dead, exit_]
    return Graph(entry, [entry, pre, head, body], [head], exit_, probes=probes, passes=2)


GRAPHS = {
    "linear3": lambda: linear_graph(3),
    "linear5": lambda: linear_graph(5),
    "diamond": diamond_graph,
    "nested_diamond": nested_diamond_graph,
    "loop": loop_graph,
    "unreachable_exit": unreachable_exit_graph,
}


def make_pool():
    """Fresh blocks/locations per example (uids must not leak across)."""
    s = LocalBlock("s", "fake", size=8)
    h = HeapBlock("site")
    p1 = ExtendedParameter("1_p", "fake")
    p2 = ExtendedParameter("2_p", "fake")
    targets = [
        LocationSet(LocalBlock("t1", "fake"), 0, 0),
        LocationSet(LocalBlock("t2", "fake"), 0, 0),
        LocationSet(p1, 0, 0),
    ]
    # writes: word-aligned stride-0 sets only (see module docstring)
    write_locs = [
        LocationSet(s, 0, 0),
        LocationSet(s, 4, 0),
        LocationSet(h, 0, 0),
        LocationSet(p1, 0, 0),
    ]
    # probes additionally cover the strided whole-block set
    probe_locs = [*write_locs, LocationSet(s, 0, 1)]
    return write_locs, probe_locs, targets, p1, p2


ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 99),  # node pick (mod #assignable)
        st.integers(0, 3),  # write loc pick
        st.sets(st.integers(0, 2), max_size=3),  # value pick
        st.booleans(),  # want strong
        st.booleans(),  # interleave a lookup after this op
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=120, deadline=None)
@given(
    graph_kind=st.sampled_from(sorted(GRAPHS)),
    ops=ops_strategy,
    subsume=st.booleans(),
    probe_width=st.sampled_from([1, 4, 8]),
)
def test_dense_sparse_and_cache_equivalence(graph_kind, ops, subsume, probe_width):
    graph = GRAPHS[graph_kind]()
    entry, meets, exit_ = graph.entry, graph.meets, graph.exit
    write_locs, probe_locs, targets, p1, p2 = make_pool()

    dense = DenseState(entry)
    cached = SparseState(entry)
    plain = UncachedSparseState(entry)
    states = (dense, cached, plain)

    # Route each op to a *distinct* node (picked pseudo-randomly from the
    # unused ones), then replay in order so the dense state's merge_at
    # discipline is respected.  One assignment per node mirrors the
    # evaluator: the representations make no intra-node ordering promise
    # (dense applies a node's ops sequentially, sparse's per-node def map
    # is unordered), so two ops on one node would compare semantics
    # neither ever exhibits.
    unused = list(graph.assignable)
    by_node: dict[int, list] = {}
    for node_pick, loc_pick, val_pick, want_strong, probe in ops:
        if not unused:
            break
        node = unused.pop(node_pick % len(unused))
        by_node[node.uid] = [(loc_pick, val_pick, want_strong, probe)]

    evaluated: set[int] = set()
    for _ in range(graph.passes):
        for node in graph.order:
            if node is not entry:
                dense.merge_at(node, evaluated)
            if node in meets:
                # evaluate pending φs the way the evaluator would: from the
                # predecessors evaluated so far
                for phi_loc in sorted(
                    cached.phi_locations(node),
                    key=lambda l: (l.base.uid, l.offset, l.stride),
                ):
                    for sp in (cached, plain):
                        merged = frozenset()
                        for pred in node.preds:
                            if pred.uid in evaluated or pred is entry:
                                merged |= sp.lookup(phi_loc, pred, before=False)
                        sp.assign_phi(phi_loc, merged, node)
            for loc_pick, val_pick, want_strong, probe in by_node.get(node.uid, ()):
                loc = write_locs[loc_pick]
                values = frozenset(targets[i] for i in sorted(val_pick))
                strong = want_strong and loc.is_unique
                for stt in states:
                    stt.assign(loc, values, node, strong=strong, size=4)
                if probe:  # interleaved lookups: hit the memo mid-sequence
                    got = [
                        stt.lookup_overlapping(loc, node, width=probe_width, before=False)
                        for stt in states
                    ]
                    assert got[0] == got[1] == got[2]
            evaluated.add(node.uid)

    if subsume:
        p1.subsumed_by = p2
        # dense observes subsumption lazily; sparse via the global epoch

    for node in graph.probes:
        for loc in probe_locs:
            d = dense.lookup_overlapping(loc, node, width=probe_width, before=False)
            c = cached.lookup_overlapping(loc, node, width=probe_width, before=False)
            p = plain.lookup_overlapping(loc, node, width=probe_width, before=False)
            assert c == p, (str(loc), node.uid, c, p)
            assert d == c, (str(loc), node.uid, d, c)
            lc = cached.lookup(loc, node, before=False)
            lp = plain.lookup(loc, node, before=False)
            assert lc == lp

    assert cached.summary(exit_) == plain.summary(exit_)
    assert dense.summary(exit_) == cached.summary(exit_)


def test_sibling_branch_defs_stay_invisible():
    """A def on one arm of a diamond is not visible on the other arm, nor
    at an unreachable exit; both arms' values meet in the φ."""
    graph = nested_diamond_graph()
    entry, b0, left, b1, ll, lr, m1, l2, right, m0, tail, exit_ = graph.order
    write_locs, probe_locs, targets, p1, p2 = make_pool()
    loc = write_locs[0]
    va, vb = frozenset({targets[0]}), frozenset({targets[1]})
    for kind in (DenseState, SparseState):
        st = kind(entry)
        evaluated = set()
        for node in graph.order:
            if kind is DenseState and node is not entry:
                st.merge_at(node, evaluated)
            if node is ll:
                st.assign(loc, va, node, strong=True)
            if node is right:
                st.assign(loc, vb, node, strong=True)
            evaluated.add(node.uid)
        assert st.lookup(loc, lr, before=False) == frozenset()
        assert st.lookup(loc, right, before=True) == frozenset()
        assert st.lookup(loc, ll, before=False) == va
        assert st.lookup(loc, right, before=False) == vb
    graph = unreachable_exit_graph()
    st = SparseState(graph.entry)
    st.assign(loc, va, graph.order[-1], strong=True)
    assert st.lookup(loc, graph.exit, before=False) == frozenset()
    assert st.summary(graph.exit) == {}
