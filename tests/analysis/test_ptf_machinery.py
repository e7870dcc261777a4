"""Unit tests for PTF / ParamMap mechanics (§2.2, §5.2)."""

import pytest

from repro import analyze_source
from repro.analysis.ptf import PTF, ParamMap
from repro.ir.program import Procedure
from repro.memory.blocks import ExtendedParameter, LocalBlock
from repro.memory.locset import LocationSet


def make_ptf():
    proc = Procedure("f")
    proc.finalize()
    return PTF(proc)


class TestParamMap:
    def test_bind_and_lookup(self):
        m = ParamMap()
        p = ExtendedParameter("1_p", "f")
        vals = frozenset({LocationSet(LocalBlock("x", "main"), 0, 0)})
        m.bind_param(p, vals)
        assert m.lookup_param(p) == vals

    def test_extend_unions(self):
        m = ParamMap()
        p = ExtendedParameter("1_p", "f")
        a = frozenset({LocationSet(LocalBlock("x", "main"), 0, 0)})
        b = frozenset({LocationSet(LocalBlock("y", "main"), 0, 0)})
        m.bind_param(p, a)
        m.extend_param(p, b)
        assert m.lookup_param(p) == a | b

    def test_lookup_follows_subsumption(self):
        m = ParamMap()
        p1 = ExtendedParameter("1_p", "f")
        p2 = ExtendedParameter("2_p", "f")
        vals = frozenset({LocationSet(LocalBlock("x", "main"), 0, 0)})
        m.bind_param(p2, vals)
        p1.subsumed_by = p2
        assert m.lookup_param(p1) == vals

    def test_caller_locations_offsets(self):
        m = ParamMap()
        p = ExtendedParameter("1_p", "f")
        block = LocalBlock("s", "main")
        m.bind_param(p, frozenset({LocationSet(block, 4, 0)}))
        out = m.caller_locations(LocationSet(p, 8, 0))
        assert out == frozenset({LocationSet(block, 12, 0)})

    def test_caller_locations_negative_offset(self):
        m = ParamMap()
        p = ExtendedParameter("1_p", "f")
        block = LocalBlock("s", "main")
        m.bind_param(p, frozenset({LocationSet(block, 8, 0)}))
        out = m.caller_locations(LocationSet(p, -8, 0))
        assert out == frozenset({LocationSet(block, 0, 0)})

    def test_caller_locations_unbound_none(self):
        m = ParamMap()
        p = ExtendedParameter("1_p", "f")
        assert m.caller_locations(LocationSet(p, 0, 0)) is None

    def test_copy_is_independent(self):
        m = ParamMap()
        p = ExtendedParameter("1_p", "f")
        m.bind_param(p, frozenset())
        c = m.copy()
        c.bind_param(ExtendedParameter("2_q", "f"), frozenset())
        assert len(m.param_values) == 1
        assert len(c.param_values) == 2

    def test_non_param_location_none(self):
        m = ParamMap()
        block = LocalBlock("x", "main")
        assert m.caller_locations(LocationSet(block, 0, 0)) is None


class TestPTFObject:
    def test_param_naming_order(self):
        ptf = make_ptf()
        a = ptf.new_param("p")
        b = ptf.new_param("q")
        assert a.name == "1_p" and b.name == "2_q"
        assert a.order == 0 and b.order == 1

    def test_reset_wipes_params_and_entries(self):
        ptf = make_ptf()
        p = ptf.new_param("p")
        ptf.add_initial_entry(
            LocationSet(p, 0, 0), frozenset()
        )
        ptf.reset()
        assert ptf.params == []
        assert ptf.initial_entries == []

    def test_summary_generation_tracks_change(self):
        ptf = make_ptf()
        ptf.summary()  # prime the cache
        g0 = ptf.summary_generation
        ptf.summary()
        assert ptf.summary_generation == g0  # unchanged summary: no bump
        block = LocalBlock("x", "f")
        ptf.state.assign(
            LocationSet(block, 0, 0),
            frozenset({LocationSet(LocalBlock("y", "f"), 0, 0)}),
            ptf.proc.entry.succs[0] if ptf.proc.entry.succs else ptf.proc.exit,
            strong=True,
        )
        ptf.summary()
        assert ptf.summary_generation > g0

    def test_describe_is_stable_text(self):
        ptf = make_ptf()
        text = ptf.describe()
        assert text.startswith("PTF#")


class TestInputsGainedPointers:
    def test_snapshot_then_no_change(self):
        ptf = make_ptf()
        m = ParamMap()
        p = ptf.new_param("p")
        block = LocalBlock("x", "main")
        m.bind_param(p, frozenset({LocationSet(block, 0, 0)}))
        ptf.snapshot_pointer_versions(m)
        assert not ptf.inputs_gained_pointers(m)

    def test_new_pointer_location_detected(self):
        ptf = make_ptf()
        m = ParamMap()
        p = ptf.new_param("p")
        block = LocalBlock("x", "main")
        m.bind_param(p, frozenset({LocationSet(block, 0, 0)}))
        ptf.snapshot_pointer_versions(m)
        block.register_pointer_location(8, 0)
        assert ptf.inputs_gained_pointers(m)


class TestMatchingBehaviour:
    """End-to-end matching properties observed through analysis runs."""

    def test_null_vs_nonnull_inputs_still_match(self):
        """Same alias pattern with different concrete values: one PTF."""
        src = """
        int g;
        int *read_it(int **pp) { return *pp; }
        int main(void){
            int *a = 0;
            int *b = &g;
            int *r1 = read_it(&a);
            int *r2 = read_it(&b);
            return 0;
        }
        """
        r = analyze_source(src)
        assert len(r.ptfs_of("read_it")) == 1
        assert r.points_to_names("main", "r2") == {"g"}

    def test_match_is_order_insensitive_to_actual_identity(self):
        src = """
        int g1, g2;
        void swap_targets(int **a, int **b) {
            int *t = *a;
            *a = *b;
            *b = t;
        }
        int main(void){
            int *p = &g1, *q = &g2;
            swap_targets(&p, &q);
            swap_targets(&q, &p);
            return 0;
        }
        """
        r = analyze_source(src)
        # same pattern both times: one PTF, both orders
        assert len(r.ptfs_of("swap_targets")) == 1

    def test_fnptr_domain_mismatch_splits(self):
        src = """
        int a, b;
        void ca(int **s) { *s = &a; }
        void cb(int **s) { *s = &b; }
        void run(void (*f)(int **), int **s) { f(s); }
        int main(void){
            int *x, *y;
            run(ca, &x);
            run(cb, &y);
            return 0;
        }
        """
        r = analyze_source(src)
        # the callback value is part of the input domain: one PTF per callee
        # (here via the structural procedure-block target of the formal)
        assert len(r.ptfs_of("run")) == 2
        assert r.points_to_names("main", "x") == {"a"}
        assert r.points_to_names("main", "y") == {"b"}

    def test_fnptr_value_in_initial_entries(self):
        """A function pointer stored behind a pointer shows up as a
        structural (procedure-block) target in the initial points-to
        entries — the §5.2 input-domain record for call targets."""
        src = """
        int a;
        void ca(int **s) { *s = &a; }
        void run(void (**fpp)(int **), int **s) { (*fpp)(s); }
        int main(void){
            void (*fp)(int **) = ca;
            int *x;
            run(&fp, &x);
            return 0;
        }
        """
        r = analyze_source(src)
        ptf = r.ptfs_of("run")[0]
        structural = {
            t.base.name
            for e in ptf.initial_entries
            for t in e.targets
            if t.base.kind == "proc"
        }
        assert "ca" in structural
        assert r.points_to_names("main", "x") == {"a"}

    def test_two_stored_callbacks_split_ptfs(self):
        src = """
        int a, b;
        void ca(int **s) { *s = &a; }
        void cb(int **s) { *s = &b; }
        void run(void (**fpp)(int **), int **s) { (*fpp)(s); }
        int main(void){
            void (*f1)(int **) = ca;
            void (*f2)(int **) = cb;
            int *x, *y;
            run(&f1, &x);
            run(&f2, &y);
            return 0;
        }
        """
        r = analyze_source(src)
        assert r.points_to_names("main", "x") == {"a"}
        assert r.points_to_names("main", "y") == {"b"}
        assert len(r.ptfs_of("run")) == 2

    def test_home_context_does_not_leak_ptfs(self):
        """Iterative re-evaluation of one call site must not accumulate
        one PTF per fixpoint iteration (§5.2 home mechanism)."""
        src = """
        int a, b, c;
        int *pick(int **pp) { return *pp; }
        int main(void){
            int *p = &a;
            int *got = 0;
            while (c) {
                got = pick(&p);
                p = c ? &a : &b;
            }
            return 0;
        }
        """
        r = analyze_source(src)
        assert len(r.ptfs_of("pick")) <= 2
