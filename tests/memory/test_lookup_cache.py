"""Regression tests for the sparse lookup layer.

These pin down the invariants:

* the ``lookup_overlapping`` memo is pure memoization — sparse states
  with and without it give identical answers over identical operation
  sequences,
* ``lookup_overlapping`` normalizes its result exactly like the dense
  representation (values recorded before their base parameter was subsumed
  must not leak through),
* a wide read is *not* fenced by a narrower strong update (the kill-size
  fix), matching the dense per-key kill semantics,
* ``DenseState.set_initial`` only bumps ``change_counter`` when the
  initial values actually change,
* write invalidation is per base block — a def for one base must not
  disturb memoized answers for another base, while still invalidating its
  own,
* ``cache_hits``/``cache_misses`` count probes of the overlap memo, and
  ``dom_walk_steps`` counts the indexed def nodes the interval scans
  examine.
"""

import pytest

from repro.diagnostics.metrics import Metrics
from repro.memory.blocks import ExtendedParameter, LocalBlock
from repro.memory.locset import LocationSet
from repro.memory.pointsto import DenseState, SparseState

from .test_pointsto import diamond_graph, linear_graph, loc


def _sparse_pair(entry):
    """A cached and an uncached sparse state over the same graph."""
    return SparseState(entry, lookup_cache=True), SparseState(
        entry, lookup_cache=False
    )


class TestCachedEqualsUncached:
    def test_linear_scripted_sequence(self):
        entry, nodes, exit_ = linear_graph(6)
        cached, plain = _sparse_pair(entry)
        block = LocalBlock("p", "fake")
        l = LocationSet(block, 0, 0)
        l4 = LocationSet(block, 4, 0)
        whole = LocationSet(block, 0, 1)
        script = [
            ("set_initial", l, frozenset({loc("init")})),
            ("assign", whole, frozenset({loc("old")}), nodes[0], False),
            ("assign", l, frozenset({loc("a")}), nodes[1], True),
            ("assign", l4, frozenset({loc("b")}), nodes[2], True),
            ("assign", l, frozenset({loc("c")}), nodes[3], False),
        ]
        for st in (cached, plain):
            for op in script:
                if op[0] == "set_initial":
                    st.set_initial(op[1], op[2])
                else:
                    st.assign(op[1], op[2], op[3], strong=op[4])
        for node in [*nodes, exit_]:
            for probe in (l, l4, whole):
                for before in (True, False):
                    assert cached.lookup(probe, node, before=before) == plain.lookup(
                        probe, node, before=before
                    )
                    for width in (1, 4, 8):
                        assert cached.lookup_overlapping(
                            probe, node, width=width, before=before
                        ) == plain.lookup_overlapping(
                            probe, node, width=width, before=before
                        )
        assert cached.summary(exit_) == plain.summary(exit_)

    def test_interleaved_lookups_and_writes(self):
        # lookups *between* writes exercise invalidation, not just warmup
        entry, nodes, exit_ = linear_graph(5)
        cached, plain = _sparse_pair(entry)
        l = loc("q")
        v1, v2, v3 = frozenset({loc("v1")}), frozenset({loc("v2")}), frozenset(
            {loc("v3")}
        )
        for st in (cached, plain):
            st.assign(l, v1, nodes[0], strong=True)
        assert cached.lookup(l, exit_) == plain.lookup(l, exit_)
        for st in (cached, plain):
            st.assign(l, v2, nodes[2], strong=True)
        assert cached.lookup(l, exit_) == plain.lookup(l, exit_)
        assert cached.lookup(l, nodes[1]) == plain.lookup(l, nodes[1])
        for st in (cached, plain):
            st.assign(l, v3, nodes[4], strong=False)
        for node in [*nodes, exit_]:
            assert cached.lookup(l, node, before=False) == plain.lookup(
                l, node, before=False
            )

    def test_diamond_with_phi(self):
        entry, branch, left, right, meet, exit_ = diamond_graph()
        cached, plain = _sparse_pair(entry)
        l = loc("p")
        va, vb = frozenset({loc("a")}), frozenset({loc("b")})
        for st in (cached, plain):
            st.assign(l, va, left, strong=True)
            st.assign(l, vb, right, strong=True)
            merged = st.lookup(l, left, before=False) | st.lookup(
                l, right, before=False
            )
            st.assign_phi(l, merged, meet)
        assert cached.lookup(l, exit_) == plain.lookup(l, exit_)
        assert cached.summary(exit_) == plain.summary(exit_)


class TestOverlapNormalization:
    def test_overlap_result_follows_subsumption(self):
        """Values whose base was later subsumed must come out renormalized
        from lookup_overlapping — on both representations, identically."""
        entry, nodes, exit_ = linear_graph(3)
        dense = DenseState(entry)
        sparse = SparseState(entry)
        p1 = ExtendedParameter("1_p", "f")
        target = LocationSet(p1, 0, 0)
        l = loc("q")
        dense.merge_at(nodes[0], set())
        for st in (dense, sparse):
            st.assign(l, frozenset({target}), nodes[0], strong=True)
        # subsume p1 after the value was recorded
        p2 = ExtendedParameter("2_p", "f")
        p1.subsumed_by = p2
        sparse.mark_changed()
        dense.merge_at(nodes[1], {nodes[0].uid})
        want = frozenset({LocationSet(p2, 0, 0)})
        got_dense = dense.lookup_overlapping(l, nodes[1], width=4)
        got_sparse = sparse.lookup_overlapping(l, nodes[1], width=4)
        assert got_dense == want
        assert got_sparse == want

    def test_overlap_subsumption_without_notification(self):
        """Direct ``subsumed_by`` assignment (no mark_changed) must still be
        observed via the global subsumption epoch."""
        entry, nodes, exit_ = linear_graph(3)
        sparse = SparseState(entry)
        p1 = ExtendedParameter("1_p", "f")
        l = loc("q")
        sparse.assign(l, frozenset({LocationSet(p1, 0, 0)}), nodes[0], strong=True)
        # warm the cache with the pre-subsumption value
        assert sparse.lookup_overlapping(l, nodes[1], width=4) == frozenset(
            {LocationSet(p1, 0, 0)}
        )
        p2 = ExtendedParameter("2_p", "f")
        p1.subsumed_by = p2
        assert sparse.lookup_overlapping(l, nodes[1], width=4) == frozenset(
            {LocationSet(p2, 0, 0)}
        )


class TestWideReadPastNarrowStrongUpdate:
    @pytest.mark.parametrize("cache", [True, False])
    def test_narrow_strong_update_does_not_fence_wide_read(self, cache):
        """A 4-byte strong update must not hide the history of bytes 4..7
        from an 8-byte read at the same offset."""
        entry, nodes, exit_ = linear_graph(3)
        st = SparseState(entry, lookup_cache=cache)
        block = LocalBlock("s", "fake", size=8)
        word0 = LocationSet(block, 0, 0)
        whole = LocationSet(block, 0, 1)
        old, new = loc("old"), loc("new")
        st.assign(whole, frozenset({old}), nodes[0], strong=False)
        st.assign(word0, frozenset({new}), nodes[1], strong=True, size=4)
        # 4-byte read: fully covered by the strong update -> new only
        assert st.lookup_overlapping(word0, nodes[2], width=4) == frozenset({new})
        # 8-byte read: bytes 4..7 were not overwritten -> old survives
        got = st.lookup_overlapping(word0, nodes[2], width=8)
        assert got == frozenset({new, old})

    @pytest.mark.parametrize("cache", [True, False])
    def test_strong_update_fences_read_at_its_own_node(self, cache):
        """A ``before=False`` read at the strong update's own node is an
        *inclusive* read: the covering strong def at the node itself must
        fence the history of the other overlapping keys."""
        entry, nodes, exit_ = linear_graph(3)
        st = SparseState(entry, lookup_cache=cache)
        block = LocalBlock("s", "fake", size=8)
        word0 = LocationSet(block, 0, 0)
        whole = LocationSet(block, 0, 1)
        old, new = loc("old"), loc("new")
        st.assign(whole, frozenset({old}), nodes[0], strong=False)
        st.assign(word0, frozenset({new}), nodes[1], strong=True, size=4)
        # before the node executes the strong update is not visible yet
        assert st.lookup_overlapping(word0, nodes[1], width=4, before=True) == (
            frozenset({old})
        )
        # after it executes, the write at this very node is the fence
        assert st.lookup_overlapping(word0, nodes[1], width=4, before=False) == (
            frozenset({new})
        )

    def test_matches_dense_semantics(self):
        entry, nodes, exit_ = linear_graph(3)
        dense = DenseState(entry)
        sparse = SparseState(entry)
        block = LocalBlock("s", "fake", size=8)
        word0 = LocationSet(block, 0, 0)
        word4 = LocationSet(block, 4, 0)
        old, new = loc("old"), loc("new")
        dense.merge_at(nodes[0], set())
        for st in (dense, sparse):
            st.assign(word4, frozenset({old}), nodes[0], strong=True, size=4)
        dense.merge_at(nodes[1], {nodes[0].uid})
        for st in (dense, sparse):
            st.assign(word0, frozenset({new}), nodes[1], strong=True, size=4)
        dense.merge_at(nodes[2], {nodes[0].uid, nodes[1].uid})
        for width in (1, 4, 8):
            assert dense.lookup_overlapping(
                word0, nodes[2], width=width
            ) == sparse.lookup_overlapping(word0, nodes[2], width=width)


class TestDenseSetInitialCounter:
    def test_repeat_set_initial_is_stable(self):
        entry, nodes, exit_ = linear_graph(2)
        st = DenseState(entry)
        l, v = loc(), frozenset({loc("t")})
        st.set_initial(l, v)
        first = st.change_counter
        st.set_initial(l, v)  # identical values: no change
        assert st.change_counter == first
        st.set_initial(l, frozenset())  # subset: still no change
        assert st.change_counter == first
        st.set_initial(l, v | frozenset({loc("u")}))  # genuinely new
        assert st.change_counter > first

    def test_sparse_counterpart_also_stable(self):
        entry, nodes, exit_ = linear_graph(2)
        st = SparseState(entry)
        l, v = loc(), frozenset({loc("t")})
        st.set_initial(l, v)
        first = st.change_counter
        st.set_initial(l, v)
        assert st.change_counter == first


class TestPerBaseInvalidation:
    def test_write_to_other_base_keeps_partition(self):
        entry, nodes, exit_ = linear_graph(4)
        metrics = Metrics()
        st = SparseState(entry, metrics=metrics)
        la, lb = loc("a"), loc("b")
        vb2 = frozenset({loc("vb2")})
        st.assign(la, frozenset({loc("va")}), nodes[0], strong=True)
        st.assign(lb, frozenset({loc("vb")}), nodes[0], strong=True)
        st.lookup_overlapping(la, nodes[3], width=4)  # warm a's partition
        hits_before = metrics.cache_hits
        st.lookup_overlapping(la, nodes[3], width=4)
        assert metrics.cache_hits == hits_before + 1
        # write to b: a's memoized read must survive ...
        st.assign(lb, vb2, nodes[2], strong=True)
        hits_before = metrics.cache_hits
        st.lookup_overlapping(la, nodes[3], width=4)
        assert metrics.cache_hits == hits_before + 1
        # ... and b's must not: the fresh def has to be visible
        assert st.lookup_overlapping(lb, nodes[3], width=4) == vb2
        assert st.lookup(lb, nodes[3]) == vb2

    def test_invalidated_base_sees_new_value(self):
        entry, nodes, exit_ = linear_graph(4)
        st = SparseState(entry)
        l = loc("p")
        v1, v2 = frozenset({loc("v1")}), frozenset({loc("v2")})
        st.assign(l, v1, nodes[0], strong=True)
        assert st.lookup(l, nodes[3]) == v1
        st.assign(l, v2, nodes[1], strong=True)
        assert st.lookup(l, nodes[3]) == v2


class TestMetricsCounting:
    def test_hits_and_misses_counted(self):
        entry, nodes, exit_ = linear_graph(3)
        metrics = Metrics()
        st = SparseState(entry, metrics=metrics)
        l = loc("p")
        st.assign(l, frozenset({loc("v")}), nodes[0], strong=True)
        st.lookup_overlapping(l, nodes[2], width=4)
        assert metrics.cache_misses > 0
        misses = metrics.cache_misses
        st.lookup_overlapping(l, nodes[2], width=4)
        assert metrics.cache_hits >= 1
        assert metrics.cache_misses == misses
        assert 0.0 < metrics.cache_hit_rate() < 1.0
        # exact-key lookups are not memoized: they probe nothing
        st.lookup(l, nodes[2])
        assert (metrics.cache_hits, metrics.cache_misses) == (1, misses)

    def test_disabled_cache_counts_nothing(self):
        entry, nodes, exit_ = linear_graph(3)
        metrics = Metrics()
        st = SparseState(entry, lookup_cache=False, metrics=metrics)
        l = loc("p")
        st.assign(l, frozenset({loc("v")}), nodes[0], strong=True)
        st.lookup_overlapping(l, nodes[2], width=4)
        st.lookup_overlapping(l, nodes[2], width=4)
        assert metrics.cache_hits == 0 and metrics.cache_misses == 0
        assert metrics.dom_walk_steps > 0
        # each read scans one strong-def index entry (the fence at
        # nodes[0]) and one def index entry (the def it answers from)
        assert metrics.dom_walk_steps == 4
        assert metrics.cache_hit_rate() == 0.0

    def test_steps_count_examined_index_entries(self):
        """The interval scan stops at the first indexed node whose
        interval contains the probe; defs off the probe's dominator chain
        cost one step each, defs after the probe in preorder none."""
        entry, branch, left, right, meet, exit_ = diamond_graph()
        early, late = sorted((left, right), key=lambda n: n.dom_pre)
        metrics = Metrics()
        st = SparseState(entry, metrics=metrics)
        l, vb = loc("p"), frozenset({loc("b")})
        st.assign(l, vb, branch, strong=True)
        st.assign(l, frozenset({loc("e")}), early, strong=True)
        st.assign(l, frozenset({loc("x")}), exit_, strong=True)
        steps = metrics.dom_walk_steps
        # from the later sibling: the earlier one is examined and skipped
        # (its def stays invisible), branch answers; the def at exit lies
        # after the probe in preorder and is never examined
        assert st.lookup(l, late) == vb
        assert metrics.dom_walk_steps == steps + 2
