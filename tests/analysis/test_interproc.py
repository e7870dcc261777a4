"""Interprocedural behaviour: PTFs, reuse, context sensitivity, summaries."""

import pytest

from repro import analyze_source

from ..memory.dense_oracle import both_kinds


class TestBasicCalls:
    def test_out_parameter(self):
        src = """
        int g;
        void set(int **p, int *v) { *p = v; }
        int *q;
        int main(void) { set(&q, &g); return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_return_value(self):
        src = """
        int g;
        int *get(void) { return &g; }
        int main(void) { int *p = get(); return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"g"}

    def test_pass_through(self):
        src = """
        int g;
        int *identity(int *p) { return p; }
        int main(void) { int *q = identity(&g); return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_two_level_call_chain(self):
        src = """
        int g;
        void inner(int **p) { *p = &g; }
        void outer(int **p) { inner(p); }
        int main(void) { int *q; outer(&q); return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_callee_writes_global(self):
        src = """
        int g;
        int *gp;
        void poke(void) { gp = &g; }
        int main(void) { poke(); return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "gp") == {"g"}

    def test_callee_reads_global(self):
        src = """
        int g;
        int *gp;
        int *fetch(void) { return gp; }
        int main(void) { gp = &g; int *q = fetch(); return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_void_call_no_return_crash(self):
        src = """
        void nothing(void) { }
        int main(void) { nothing(); return 0; }
        """
        for r in both_kinds(src):
            assert len(r.ptfs_of("nothing")) == 1


class TestContextSensitivity:
    def test_identity_not_smeared_across_contexts(self):
        """The classic unrealizable-path test: calling id() with &a and &b
        must not make both results point to both targets."""
        src = """
        int a, b;
        int *id(int *p) { return p; }
        int main(void) {
            int *pa = id(&a);
            int *pb = id(&b);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "pa") == {"a"}
            assert r.points_to_names("main", "pb") == {"b"}

    def test_one_ptf_for_same_alias_pattern(self):
        src = """
        int a, b;
        int *id(int *p) { return p; }
        int main(void) {
            int *pa = id(&a);
            int *pb = id(&b);
            return 0;
        }
        """
        for r in both_kinds(src):
            # both calls have the same (trivial) alias pattern: one PTF
            assert len(r.ptfs_of("id")) == 1
            assert r.analyzer.metrics.ptf_reuses >= 1

    def test_swap_respects_contexts(self):
        src = """
        int a, b;
        int *u, *v;
        void swap(int **x, int **y) {
            int *t = *x;
            *x = *y;
            *y = t;
        }
        int main(void) {
            u = &a; v = &b;
            swap(&u, &v);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "u") == {"b"}
            assert r.points_to_names("main", "v") == {"a"}

    def test_different_aliases_make_second_ptf(self):
        src = """
        int a, b;
        int *u, *v;
        void two(int **x, int **y) { *x = *y; }
        int main(void) {
            u = &a; v = &b;
            two(&u, &v);    /* x, y distinct */
            two(&u, &u);    /* x, y aliased */
            return 0;
        }
        """
        for r in both_kinds(src):
            assert len(r.ptfs_of("two")) == 2

    def test_globals_parameterized_for_reuse(self):
        """§2.2: parametrizing globals lets one PTF serve contexts where a
        global holds different values."""
        src = """
        int a, b;
        int *g;
        int *read_g(void) { return g; }
        int main(void) {
            g = &a;
            int *p = read_g();
            g = &b;
            int *q = read_g();
            return 0;
        }
        """
        for r in both_kinds(src):
            assert len(r.ptfs_of("read_g")) == 1
            assert r.points_to_names("main", "p") == {"a"}
            assert r.points_to_names("main", "q") == {"b"}

    def test_irrelevant_alias_does_not_block_reuse(self):
        """Parameters are created lazily (§2.2): aliases among inputs the
        callee never touches must not prevent PTF reuse."""
        src = """
        int a, b;
        int *u, *v;
        void touch_first(int **x, int **y) { *x = (int *)0; }
        int main(void) {
            u = &a; v = &b;
            touch_first(&u, &v);   /* unaliased */
            touch_first(&u, &u);   /* aliased, but y never referenced */
            return 0;
        }
        """
        for r in both_kinds(src):
            assert len(r.ptfs_of("touch_first")) == 1


class TestStrongUpdateThroughCalls:
    def test_callee_strong_update_kills_in_caller(self):
        src = """
        int a, b;
        void clobber(int **p) { *p = &b; }
        int main(void) {
            int *q = &a;
            clobber(&q);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"b"}

    def test_extended_param_strong_update(self):
        """§4.1's key insight: an extended parameter for a unique pointer
        supports strong updates even when the caller-side pointer has many
        values — here it does not, but the update must still kill."""
        src = """
        int a, b, c;
        void set_target(int **p) { *p = &c; }
        int main(void) {
            int *q = &a;
            int *s = &b;
            set_target(&q);
            set_target(&s);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"c"}
            assert r.points_to_names("main", "s") == {"c"}

    def test_conditional_callee_update_is_merge(self):
        src = """
        int a, b;
        void maybe(int **p, int c) { if (c) *p = &b; }
        int main(void) {
            int *q = &a;
            maybe(&q, 1);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"a", "b"}


class TestHeapThroughCalls:
    def test_allocator_wrapper(self):
        src = """
        #include <stdlib.h>
        void *xmalloc(unsigned int n) { return malloc(n); }
        int main(void) {
            int *p = xmalloc(4);
            int *q = xmalloc(8);
            return 0;
        }
        """
        for r in both_kinds(src):
            p = r.points_to_names("main", "p")
            q = r.points_to_names("main", "q")
            # one static allocation site inside xmalloc: p and q share it
            assert p == q and len(p) == 1
            assert any("heap" in n for n in p)

    def test_heap_escapes_through_global(self):
        src = """
        #include <stdlib.h>
        int *stash;
        void alloc_into_global(void) { stash = malloc(4); }
        int main(void) { alloc_into_global(); int *p = stash; return 0; }
        """
        for r in both_kinds(src):
            assert any("heap" in n for n in r.points_to_names("main", "p"))

    def test_caller_heap_passed_down(self):
        src = """
        #include <stdlib.h>
        int g;
        void fill(int **cell) { *cell = &g; }
        int main(void) {
            int **box = malloc(sizeof(int *));
            fill(box);
            int *p = *box;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"g"}


class TestMultiLevel:
    def test_deep_chain(self):
        src = """
        int g;
        void l4(int **p) { *p = &g; }
        void l3(int **p) { l4(p); }
        void l2(int **p) { l3(p); }
        void l1(int **p) { l2(p); }
        int main(void) { int *q; l1(&q); return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}
            for proc in ("l1", "l2", "l3", "l4"):
                assert len(r.ptfs_of(proc)) == 1

    def test_diamond_call_graph(self):
        src = """
        int a, b;
        void set(int **p, int *v) { *p = v; }
        void left(int **p) { set(p, &a); }
        void right(int **p) { set(p, &b); }
        int main(void) {
            int *x, *y;
            left(&x);
            right(&y);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "x") == {"a"}
            assert r.points_to_names("main", "y") == {"b"}
            # set() is called with the same alias pattern from both sides
            assert len(r.ptfs_of("set")) == 1

    def test_locals_do_not_escape(self):
        src = """
        int *leak(void) { int local; return &local; }
        int main(void) { int *p = leak(); return 0; }
        """
        for r in both_kinds(src):
            # callee locals are removed when translating summaries (§5.3)
            assert r.points_to_names("main", "p") == set()


class TestArgumentForms:
    def test_struct_by_value_carries_pointers(self):
        src = """
        struct box { int *ptr; int pad; };
        int g;
        int *unwrap(struct box b) { return b.ptr; }
        int main(void) {
            struct box b;
            b.ptr = &g;
            int *p = unwrap(b);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"g"}

    def test_array_argument_decays(self):
        src = """
        int *slot(int **arr) { return arr[1]; }
        int g;
        int main(void) {
            int *table[4];
            table[1] = &g;
            int *p = slot(table);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"g"}

    def test_extra_args_ignored_safely(self):
        src = """
        int g;
        int *f();
        int *f(p) int *p; { return p; }
        int main(void) { int *q = f(&g); return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_missing_args_safe(self):
        src = """
        int *f(int *p) { return p; }
        int main(void) { int *q = f(); return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == set()
