"""Unit tests for the points-to state (§3.3, §4.2), run over the sparse
state and the dense oracle alike."""

import pytest

from repro.memory.blocks import ExtendedParameter, HeapBlock, LocalBlock
from repro.memory.locset import LocationSet
from repro.memory.pointsto import SparseState, normalize_loc
from repro.ir.dominators import finalize_graph
from repro.ir.nodes import BranchNode, EntryNode, ExitNode, MeetNode

from .dense_oracle import DenseState


class FakeProc:
    name = "fake"


def linear_graph(n):
    """entry -> n branch nodes -> exit"""
    proc = FakeProc()
    entry = EntryNode(proc)
    nodes = [BranchNode(proc) for _ in range(n)]
    exit_ = ExitNode(proc)
    prev = entry
    for nd in nodes:
        prev.add_succ(nd)
        prev = nd
    prev.add_succ(exit_)
    finalize_graph(entry)
    return entry, nodes, exit_


def diamond_graph():
    """entry -> branch -> (left | right) -> meet -> exit"""
    proc = FakeProc()
    entry = EntryNode(proc)
    branch = BranchNode(proc)
    left = BranchNode(proc)
    right = BranchNode(proc)
    meet = MeetNode(proc)
    exit_ = ExitNode(proc)
    entry.add_succ(branch)
    branch.add_succ(left)
    branch.add_succ(right)
    left.add_succ(meet)
    right.add_succ(meet)
    meet.add_succ(exit_)
    finalize_graph(entry)
    return entry, branch, left, right, meet, exit_


def loc(name="x"):
    return LocationSet(LocalBlock(name, "fake"), 0, 0)


@pytest.fixture(params=[DenseState, SparseState])
def state_cls(request):
    return request.param


class TestBasics:
    def test_initial_roundtrip(self, state_cls):
        entry, nodes, exit_ = linear_graph(2)
        st = state_cls(entry)
        l = loc()
        v = frozenset({loc("t")})
        st.set_initial(l, v)
        assert st.get_initial(l) == v

    def test_initial_visible_downstream(self, state_cls):
        entry, nodes, exit_ = linear_graph(2)
        st = state_cls(entry)
        l, v = loc(), frozenset({loc("t")})
        st.set_initial(l, v)
        if isinstance(st, DenseState):
            evaluated = set()
            for nd in [*nodes, exit_]:
                st.merge_at(nd, evaluated)
                evaluated.add(nd.uid)
        assert st.lookup(l, exit_) == v

    def test_assign_then_lookup_after(self, state_cls):
        entry, nodes, exit_ = linear_graph(2)
        st = state_cls(entry)
        l, v = loc(), frozenset({loc("t")})
        if isinstance(st, DenseState):
            st.merge_at(nodes[0], set())
        st.assign(l, v, nodes[0], strong=True)
        assert st.lookup(l, nodes[0], before=False) == v

    def test_strong_update_replaces(self, state_cls):
        entry, nodes, exit_ = linear_graph(3)
        st = state_cls(entry)
        l = loc()
        v1, v2 = frozenset({loc("a")}), frozenset({loc("b")})
        evaluated = set()
        for i, nd in enumerate(nodes):
            st.merge_at(nd, evaluated)
            if i == 0:
                st.assign(l, v1, nd, strong=True)
            elif i == 1:
                st.assign(l, v2, nd, strong=True)
            st.finish_node(nd)
            evaluated.add(nd.uid)
        st.merge_at(exit_, evaluated)
        assert st.lookup(l, exit_) == v2

    def test_weak_update_accumulates(self, state_cls):
        entry, nodes, exit_ = linear_graph(3)
        st = state_cls(entry)
        l = loc()
        v1, v2 = frozenset({loc("a")}), frozenset({loc("b")})
        evaluated = set()
        for i, nd in enumerate(nodes):
            st.merge_at(nd, evaluated)
            if i == 0:
                st.assign(l, v1, nd, strong=False)
            elif i == 1:
                st.assign(l, v2, nd, strong=False)
            st.finish_node(nd)
            evaluated.add(nd.uid)
        st.merge_at(exit_, evaluated)
        assert st.lookup(l, exit_) == v1 | v2

    def test_summary_contains_assigned_keys(self, state_cls):
        entry, nodes, exit_ = linear_graph(2)
        st = state_cls(entry)
        l, v = loc(), frozenset({loc("t")})
        evaluated = set()
        for i, nd in enumerate(nodes):
            st.merge_at(nd, evaluated)
            if i == 0:
                st.assign(l, v, nd, strong=True)
            st.finish_node(nd)
            evaluated.add(nd.uid)
        st.merge_at(exit_, evaluated)
        summary = st.summary(exit_)
        assert summary.get(l) == v


class TestDiamondMerge:
    def test_values_merge_at_meet(self, state_cls):
        entry, branch, left, right, meet, exit_ = diamond_graph()
        st = state_cls(entry)
        block = LocalBlock("p", "fake")
        l = LocationSet(block, 0, 0)
        va, vb = frozenset({loc("a")}), frozenset({loc("b")})
        evaluated = {branch.uid}
        if isinstance(st, DenseState):
            st.merge_at(branch, set())
        st.assign(l, va, left, strong=True)
        evaluated.add(left.uid)
        st.assign(l, vb, right, strong=True)
        evaluated.add(right.uid)
        if isinstance(st, DenseState):
            st.merge_at(left, evaluated)
            st.assign(l, va, left, strong=True)
            st.merge_at(right, evaluated)
            st.assign(l, vb, right, strong=True)
            st.merge_at(meet, evaluated)
            got = st.lookup(l, meet, before=True)
        else:
            # sparse: evaluate the φ at the meet
            phis = st.phi_locations(meet)
            assert l in phis
            merged = st.lookup(l, left, before=False) | st.lookup(
                l, right, before=False
            )
            st.assign_phi(l, merged, meet)
            got = st.lookup(l, meet, before=False)
        assert got == va | vb


class TestSparseSpecifics:
    def test_phi_inserted_at_frontier(self):
        entry, branch, left, right, meet, exit_ = diamond_graph()
        st = SparseState(entry)
        l = loc()
        st.assign(l, frozenset({loc("v")}), left, strong=True)
        assert l in st.phi_locations(meet)

    def test_lookup_walks_dominators(self):
        entry, nodes, exit_ = linear_graph(4)
        st = SparseState(entry)
        l, v = loc(), frozenset({loc("t")})
        st.assign(l, v, nodes[0], strong=True)
        # no defs at nodes[1..3]: the walk reaches nodes[0]
        assert st.lookup(l, nodes[3], before=True) == v

    def test_strong_fence_blocks_overlapping_history(self):
        entry, nodes, exit_ = linear_graph(3)
        st = SparseState(entry)
        block = LocalBlock("s", "fake")
        field0 = LocationSet(block, 0, 0)
        field0_dup = LocationSet(block, 0, 0)
        # old value at offset 0 via a different (overlapping) key shape
        whole = LocationSet(block, 0, 1)
        st.assign(whole, frozenset({loc("old")}), nodes[0], strong=False)
        # a strong word write at offset 0 fences the earlier whole-block def
        new_val = loc("new")
        st.assign(field0, frozenset({new_val}), nodes[1], strong=True, size=4)
        got = st.lookup_overlapping(field0_dup, nodes[2], width=4)
        assert got == frozenset({new_val}), got

    def test_phi_is_not_a_fence(self):
        entry, branch, left, right, meet, exit_ = diamond_graph()
        st = SparseState(entry)
        l = loc()
        st.assign(l, frozenset({loc("v")}), left, strong=True)
        st.assign_phi(l, frozenset({loc("v")}), meet)
        # a φ def must not fence overlapping lookups
        fence = st._find_strong_fence(l, exit_, width=4)
        assert fence is not meet


class TestNormalization:
    def test_subsumed_key_normalizes(self):
        p1 = ExtendedParameter("1_p", "f")
        p2 = ExtendedParameter("2_p", "f")
        p1.subsumed_by = p2
        l = LocationSet(p1, 4, 0)
        n = normalize_loc(l)
        assert n.base is p2 and n.offset == 4

    def test_lookup_follows_subsumption(self, state_cls):
        entry, nodes, exit_ = linear_graph(2)
        st = state_cls(entry)
        p1 = ExtendedParameter("1_p", "f")
        l_old = LocationSet(p1, 0, 0)
        v = frozenset({loc("t")})
        if isinstance(st, DenseState):
            st.merge_at(nodes[0], set())
        st.assign(l_old, v, nodes[0], strong=True)
        # now subsume p1
        p2 = ExtendedParameter("2_p", "f")
        p1.subsumed_by = p2
        l_new = LocationSet(p2, 0, 0)
        got = st.lookup(l_new, nodes[0], before=False)
        assert got == v
