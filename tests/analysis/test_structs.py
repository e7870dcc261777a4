"""Structs, unions, arrays of pointers, aggregate copies through the
analysis (§3.1, §4.4)."""

import pytest

from repro import analyze_source

from ..memory.dense_oracle import both_kinds


#: a whole-struct copy through pointers in a callee, and one in ``main``;
#: execution gives ``out1 == &b`` and ``out0 == &b``
STRUCT_COPY = """
struct pair { int *p; int *q; };
int a, b;
struct pair s1, d1, d3;
int *out0, *out1;
void copy(struct pair *dst, struct pair *src) { *dst = *src; }
int main(void) {
    s1.p = &a;
    s1.q = &b;
    copy(&d1, &s1);
    out1 = d1.q;
    d3 = s1;
    out0 = d3.q;
    return 0;
}
"""


class TestFieldSensitivity:
    def test_two_fields_kept_separate(self):
        src = """
        struct S { int *a; int *b; } s;
        int x, y;
        int main(void){
            s.a = &x;
            s.b = &y;
            int *pa = s.a;
            int *pb = s.b;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "pa") == {"x"}
            assert r.points_to_names("main", "pb") == {"y"}

    def test_field_through_pointer(self):
        src = """
        struct S { int *a; int *b; };
        int x, y;
        int main(void){
            struct S s;
            struct S *p = &s;
            p->a = &x;
            p->b = &y;
            int *pa = p->a;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "pa") == {"x"}

    def test_nested_struct_fields(self):
        src = """
        struct In { int *p; };
        struct Out { int pad; struct In inner; } o;
        int g;
        int main(void){
            o.inner.p = &g;
            int *q = o.inner.p;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_field_address_passed_to_callee(self):
        src = """
        struct S { int *a; int *b; } s;
        int g;
        void set(int **slot) { *slot = &g; }
        int main(void){
            set(&s.b);
            int *q = s.b;
            int *unrelated = s.a;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}
            assert r.points_to_names("main", "unrelated") == set()


class TestUnions:
    def test_union_members_overlap(self):
        """Writing one union member is visible through the other (§3)."""
        src = """
        union U { int *p; long bits; } u;
        int g;
        int main(void){
            u.p = &g;
            int *q = (int *)u.bits;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_union_of_structs(self):
        src = """
        struct A { int *first; };
        struct B { int *alias; };
        union U { struct A a; struct B b; } u;
        int g;
        int main(void){
            u.a.first = &g;
            int *q = u.b.alias;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}


class TestArraysOfPointers:
    def test_elements_conflated(self):
        """Array elements are deliberately merged (§3.1)."""
        src = """
        int a, b;
        int *table[4];
        int main(void){
            table[0] = &a;
            table[3] = &b;
            int *q = table[1];
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"a", "b"}

    def test_array_of_structs_field_partition(self):
        """Fields partition, elements merge: all .x together, all .y
        together (the paper's stated goal, §3.1)."""
        src = """
        struct P { int *x; int *y; };
        struct P ps[8];
        int a, b;
        int main(void){
            int i = 1, j = 5;
            ps[i].x = &a;
            ps[j].y = &b;
            int *qx = ps[j].x;
            int *qy = ps[i].y;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "qx") == {"a"}
            assert r.points_to_names("main", "qy") == {"b"}

    def test_writes_through_array_are_weak(self):
        src = """
        int a, b;
        int *table[4];
        int main(void){
            table[0] = &a;
            table[0] = &b;   /* strided destination: weak update */
            int *q = table[0];
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"a", "b"}


class TestAggregateCopies:
    def test_struct_assignment_copies_pointers(self):
        src = """
        struct S { int *p; int n; };
        int g;
        int main(void){
            struct S a, b;
            a.p = &g;
            b = a;
            int *q = b.p;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_struct_copy_preserves_field_offsets(self):
        src = """
        struct S { int *first; int *second; };
        int x, y;
        int main(void){
            struct S a, b;
            a.first = &x;
            a.second = &y;
            b = a;
            int *q1 = b.first;
            int *q2 = b.second;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q1") == {"x"}
            assert r.points_to_names("main", "q2") == {"y"}

    def test_struct_copy_strong_update(self):
        src = """
        struct S { int *p; };
        int x, y;
        int main(void){
            struct S a, b;
            a.p = &x;
            b.p = &y;
            b = a;              /* strong: b.p's old value dies */
            int *q = b.p;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"x"}

    def test_struct_return_value(self):
        src = """
        struct S { int *p; int pad; };
        int g;
        struct S make(void) {
            struct S s;
            s.p = &g;
            return s;
        }
        int main(void){
            struct S got = make();
            int *q = got.p;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_struct_passed_by_value_isolated(self):
        """Callee mutation of a by-value struct never affects the caller."""
        src = """
        struct S { int *p; };
        int x, y;
        void mutate(struct S s) { s.p = &y; }
        int main(void){
            struct S a;
            a.p = &x;
            mutate(a);
            int *q = a.p;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"x"}


class TestStructCopySoundness:
    """Known soundness defects, pinned until they are fixed (see the
    soundness-oracle item of ROADMAP.md)."""

    def test_copy_in_main_reaches_second_field(self):
        for r in both_kinds(STRUCT_COPY):
            assert r.points_to_names("main", "out0") == {"b"}

    @pytest.mark.xfail(
        strict=True,
        reason="copy's PTF summarizes only offset 0 of *dst: the second "
        "field of the copied struct is lost, so out1 gets {} where "
        "execution gives {b}",
    )
    def test_copy_through_callee_reaches_second_field(self):
        for r in both_kinds(STRUCT_COPY):
            assert r.points_to_names("main", "out1") == {"b"}

    @pytest.mark.xfail(
        strict=True,
        reason="the Andersen baseline drops struct assignment: out0 gets "
        "{} where Wilson-Lam and execution give {b}",
    )
    def test_andersen_keeps_struct_assignment(self):
        from repro import load_program
        from repro.baselines import andersen_analyze

        ai = andersen_analyze(load_program(STRUCT_COPY, "copy.c"))
        assert ai.points_to_names("main", "out0") == {"b"}


class TestHeapStructs:
    def test_malloc_struct_fields(self):
        src = """
        #include <stdlib.h>
        struct S { int *a; int *b; };
        int x, y;
        int main(void){
            struct S *s = malloc(sizeof(struct S));
            s->a = &x;
            s->b = &y;
            int *qa = s->a;
            int *qb = s->b;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "qa") == {"x"}
            assert r.points_to_names("main", "qb") == {"y"}

    def test_linked_structs_on_heap(self):
        src = """
        #include <stdlib.h>
        struct N { struct N *next; int *data; };
        int g;
        int main(void){
            struct N *a = malloc(sizeof(struct N));
            struct N *b = malloc(sizeof(struct N));
            a->next = b;
            b->data = &g;
            int *q = a->next->data;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}
