"""Extended parameters (§3.2): lazy creation, subsumption, negative offsets,
uniqueness."""

import pytest

from repro import analyze_source, AnalyzerOptions
from repro.memory.blocks import ExtendedParameter

from ..memory.dense_oracle import both_kinds


class TestLazyCreation:
    def test_unreferenced_formal_creates_no_parameter(self):
        src = """
        int a;
        void ignore(int *p, int *q) { }
        int main(void) { ignore(&a, &a); return 0; }
        """
        for r in both_kinds(src):
            ptf = r.ptfs_of("ignore")[0]
            assert len(ptf.params) == 0

    def test_only_referenced_inputs_get_parameters(self):
        src = """
        int a, b;
        int *first(int *p, int *q) { return p; }
        int main(void) { int *r = first(&a, &b); return 0; }
        """
        for r in both_kinds(src):
            ptf = r.ptfs_of("first")[0]
            # only p was referenced: one parameter
            assert len(ptf.params) == 1

    def test_parameters_created_in_reference_order(self):
        src = """
        int a, b;
        void both(int **p, int **q) {
            int *t = *q;   /* q referenced first */
            int *u = *p;
        }
        int main(void) {
            int *x = &a, *y = &b;
            both(&x, &y);
            return 0;
        }
        """
        for r in both_kinds(src):
            ptf = r.ptfs_of("both")[0]
            orders = [p.order for p in ptf.params]
            assert orders == sorted(orders)


class TestSubsumption:
    def test_partial_alias_subsumes(self):
        """Figure 6: b's initial values include a's target plus another
        value; a new parameter subsumes the old one."""
        src = """
        int v1, v2;
        int *pa;
        int *pb;
        void f(int **a, int **b) {
            int *x = *a;
            int *y = *b;
        }
        int main(void) {
            int c = 0;
            pa = &v1;
            pb = c ? &v1 : &v2;   /* pb aliases pa's target plus v2 */
            f(&pa, &pb);
            return 0;
        }
        """
        for r in both_kinds(src):
            ptf = r.ptfs_of("f")[0]
            subsumed = [p for p in ptf.params if p.subsumed_by is not None]
            # the representative of any subsumed parameter is live
            for p in subsumed:
                assert p.representative().subsumed_by is None

    def test_subsumption_preserves_soundness(self):
        src = """
        int v1, v2;
        int *pa;
        int *pb;
        int *ga, *gb;
        void f(int **a, int **b) {
            ga = *a;
            gb = *b;
        }
        int main(void) {
            int c = 0;
            pa = &v1;
            pb = c ? &v1 : &v2;
            f(&pa, &pb);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert "v1" in r.points_to_names("main", "ga")
            assert r.points_to_names("main", "gb") >= {"v1", "v2"}

    def test_subsumption_disabled_option(self):
        src = """
        int v1, v2;
        int *pa, *pb;
        void f(int **a, int **b) { int *x = *a; int *y = *b; }
        int main(void) {
            int c = 0;
            pa = &v1; pb = c ? &v1 : &v2;
            f(&pa, &pb);
            return 0;
        }
        """
        # analysis stays sound with subsumption off (§3.2 says it's optional)
        r = analyze_source(src, options=AnalyzerOptions(subsumption=False))
        assert len(r.ptfs_of("f")) >= 1


class TestNegativeOffsets:
    def test_field_seen_before_struct(self):
        """Figure 7: a pointer to a field is dereferenced before a pointer
        to the enclosing struct; the struct pointer maps to a negative
        offset from the field's parameter."""
        src = """
        struct S { int a; int b; } s;
        int g1;
        int *r1; int *r2;
        void f(int **field_ptr, struct S **struct_ptr) {
            r1 = *field_ptr;             /* field reached first */
            r2 = &(*struct_ptr)->a;      /* enclosing struct later */
        }
        int main(void) {
            int *fp = &s.b;
            struct S *sp = &s;
            f(&fp, &sp);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert any("s" == n for n in r.points_to_names("main", "r2"))
            # r1 is the field (offset 4 of s)
            locs = r.points_to("main", "r1")
            assert any(l.offset == 4 for l in locs)

    def test_negative_offset_entry_exists(self):
        src = """
        struct S { int a; int b; } s;
        int *out;
        void f(int **field_ptr, struct S **struct_ptr) {
            int *x = *field_ptr;
            struct S *y = *struct_ptr;
            out = (int *)y;
        }
        int main(void) {
            int *fp = &s.b;
            struct S *sp = &s;
            f(&fp, &sp);
            return 0;
        }
        """
        for r in both_kinds(src):
            ptf = r.ptfs_of("f")[0]
            offsets = [
                t.offset
                for e in ptf.initial_entries
                for t in e.targets
                if isinstance(t.base, ExtendedParameter)
            ]
            assert any(o < 0 for o in offsets), offsets


class TestGlobalsAsParameters:
    def test_direct_and_indirect_global_share_parameter(self):
        """§2.2: a global referenced directly and through a pointer input
        uses the same extended parameter, capturing the alias."""
        src = """
        int g;
        int *gp;
        int out;
        void f(int **p) {
            gp = (int *)1;      /* direct reference to global gp */
            **p = 5;            /* may write through the same storage */
        }
        int main(void) {
            gp = &g;
            f(&gp);
            return 0;
        }
        """
        for r in both_kinds(src):
            ptf = r.ptfs_of("f")[0]
            gp_param = ptf.global_params.get("gp")
            assert gp_param is not None
            # the parameter for *p must be the same object
            formal_entry = next(
                e for e in ptf.initial_entries if "::p" in e.source.base.name
            )
            target = next(iter(formal_entry.targets)).base.representative()
            assert target is gp_param.representative()

    def test_global_param_uniqueness_allows_strong_update(self):
        src = """
        int a, b;
        int *g;
        void setit(void) { g = &b; }
        int main(void) {
            g = &a;
            setit();
            return 0;
        }
        """
        for r in both_kinds(src):
            # the strong update through the global's parameter kills &a
            assert r.points_to_names("main", "g") == {"b"}


class TestUniqueness:
    def test_param_with_two_sources_and_multiple_values_not_unique(self):
        src = """
        int a, b;
        int *u, *v;
        int *r1, *r2;
        void f(int **x, int **y) {
            *x = *y;    /* would be a strong update if *x unique */
            r1 = *x;
        }
        int main(void) {
            int c = 0;
            u = &a;
            v = &b;
            /* x and y both point to u or v: the shared parameter is not
               unique, so the callee's update must be weak */
            f(c ? &u : &v, c ? &u : &v);
            return 0;
        }
        """
        for r in both_kinds(src):
            # weak update: u retains &a as a possibility
            assert "a" in r.points_to_names("main", "u")
