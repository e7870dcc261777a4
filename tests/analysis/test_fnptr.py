"""Function pointers (§5.1): resolution, input domains, indirect calls."""

import pytest

from repro import analyze_source

from ..memory.dense_oracle import both_kinds


class TestDirectResolution:
    def test_simple_indirect_call(self):
        src = """
        int g;
        int *get(void) { return &g; }
        int main(void) {
            int *(*fp)(void) = get;
            int *p = fp();
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"g"}

    def test_explicit_deref_call(self):
        src = """
        int g;
        int *get(void) { return &g; }
        int main(void) {
            int *(*fp)(void) = &get;
            int *p = (*fp)();
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"g"}

    def test_two_target_indirect_call_merges(self):
        src = """
        int a, b;
        int *pa(void) { return &a; }
        int *pb(void) { return &b; }
        int main(void) {
            int c = 0;
            int *(*fp)(void) = c ? pa : pb;
            int *p = fp();
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"a", "b"}

    def test_call_graph_includes_indirect_edges(self):
        src = """
        void handler_a(void) { }
        void handler_b(void) { }
        int main(void) {
            void (*h)(void);
            int c = 1;
            if (c) h = handler_a; else h = handler_b;
            h();
            return 0;
        }
        """
        for r in both_kinds(src):
            cg = r.call_graph()
            assert cg["main"] >= {"handler_a", "handler_b"}


class TestFunctionPointerArguments:
    def test_callback_passed_down(self):
        src = """
        int g;
        void apply(void (*cb)(int **), int **slot) { cb(slot); }
        void setter(int **slot) { *slot = &g; }
        int main(void) {
            int *q;
            apply(setter, &q);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_fnptr_value_is_part_of_ptf_domain(self):
        """Different function-pointer inputs must produce different PTFs —
        the code executed differs (§2.2, §5.2)."""
        src = """
        int a, b;
        void set_a(int **p) { *p = &a; }
        void set_b(int **p) { *p = &b; }
        void apply(void (*cb)(int **), int **slot) { cb(slot); }
        int main(void) {
            int *x, *y;
            apply(set_a, &x);
            apply(set_b, &y);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "x") == {"a"}
            assert r.points_to_names("main", "y") == {"b"}
            # apply() needs one PTF per distinct callback value
            assert len(r.ptfs_of("apply")) == 2

    def test_same_fnptr_value_reuses_ptf(self):
        src = """
        int a;
        void set_a(int **p) { *p = &a; }
        void apply(void (*cb)(int **), int **slot) { cb(slot); }
        int main(void) {
            int *x, *y;
            apply(set_a, &x);
            apply(set_a, &y);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert len(r.ptfs_of("apply")) == 1

    def test_fnptr_stored_in_struct(self):
        src = """
        int g;
        int *get(void) { return &g; }
        struct ops { int *(*fetch)(void); int tag; };
        int main(void) {
            struct ops o;
            o.fetch = get;
            int *p = o.fetch();
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"g"}

    def test_fnptr_in_global_table(self):
        src = """
        int a, b;
        int *pa(void) { return &a; }
        int *pb(void) { return &b; }
        int *(*table[2])(void) = { pa, pb };
        int main(void) {
            int i = 0;
            int *p = table[i]();
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"a", "b"}

    def test_fnptr_through_two_levels(self):
        src = """
        int g;
        void leaf(int **s) { *s = &g; }
        void mid(void (*f)(int **), int **s) { f(s); }
        void top(void (*f)(int **), int **s) { mid(f, s); }
        int main(void) { int *q; top(leaf, &q); return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_returned_function_pointer(self):
        src = """
        int g;
        int *get(void) { return &g; }
        int *(*choose(void))(void) { return get; }
        int main(void) {
            int *(*fp)(void) = choose();
            int *p = fp();
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"g"}


class TestUnknownTargets:
    def test_null_fnptr_never_resolves(self):
        src = """
        int main(void) {
            void (*fp)(void) = 0;
            int c = 0;
            if (c) fp();
            return 0;
        }
        """
        for r in both_kinds(src):
            # the call is deferred forever but the analysis terminates
            assert len(r.ptfs_of("main")) == 1
