"""Intraprocedural behaviour: assignments, control flow, strong updates."""

import pytest

from repro import analyze_source, AnalyzerOptions

from ..memory.dense_oracle import DenseState, both_kinds, use_state


class TestBasicAssignments:
    def test_address_of(self):
        for r in both_kinds("int a; int main(void){ int *p = &a; return 0; }"):
            assert r.points_to_names("main", "p") == {"a"}

    def test_copy_propagation(self):
        src = "int a; int main(void){ int *p = &a; int *q = p; return 0; }"
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"a"}

    def test_pointer_to_pointer(self):
        src = """
        int a;
        int main(void){ int *p = &a; int **pp = &p; int *q = *pp; return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "pp") == {"p"}
            assert r.points_to_names("main", "q") == {"a"}

    def test_store_through_pointer(self):
        src = """
        int a; int *t;
        int main(void){ int **pp = &t; *pp = &a; return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "t") == {"a"}

    def test_null_assignment_clears(self):
        src = "int a; int main(void){ int *p = &a; p = 0; return 0; }"
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == set()

    def test_chained_derefs(self):
        src = """
        int a;
        int main(void){
            int *p = &a; int **pp = &p; int ***ppp = &pp;
            int *q = **ppp;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"a"}

    def test_self_assignment(self):
        src = "int a; int main(void){ int *p = &a; p = p; return 0; }"
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"a"}


class TestStrongUpdates:
    def test_reassignment_kills_old_value(self):
        src = "int a, b; int main(void){ int *p = &a; p = &b; return 0; }"
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"b"}

    def test_conditional_assignment_merges(self):
        src = """
        int a, b, c;
        int main(void){
            int *p = &a;
            if (c) p = &b;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"a", "b"}

    def test_both_branches_assign_kills_original(self):
        src = """
        int a, b, c, d;
        int main(void){
            int *p = &a;
            if (d) p = &b; else p = &c;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"b", "c"}

    def test_store_through_unique_pointer_is_strong(self):
        src = """
        int a, b;
        int main(void){
            int *t = &a;
            int **pp = &t;
            *pp = &b;       /* pp has exactly one target: strong update */
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "t") == {"b"}

    def test_store_through_ambiguous_pointer_is_weak(self):
        src = """
        int a, b, c;
        int *t1, *t2;
        int main(void){
            t1 = &a; t2 = &a;
            int **pp = c ? &t1 : &t2;
            *pp = &b;       /* two possible targets: weak update */
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "t1") == {"a", "b"}
            assert r.points_to_names("main", "t2") == {"a", "b"}

    def test_heap_stores_are_weak(self):
        src = """
        #include <stdlib.h>
        int a, b;
        int main(void){
            int **p = malloc(sizeof(int *));
            *p = &a;
            *p = &b;        /* heap blocks are never unique (§4.1) */
            int *q = *p;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"a", "b"}

    def test_strong_updates_option_off(self):
        src = "int a, b; int main(void){ int *p = &a; p = &b; return 0; }"
        with use_state(DenseState):
            r = analyze_source(src, options=AnalyzerOptions(strong_updates=False))
        # ablation: without strong updates the old value survives
        assert r.points_to_names("main", "p") == {"a", "b"}


class TestControlFlow:
    def test_while_loop(self):
        src = """
        int a, b, c;
        int main(void){
            int *p = &a;
            while (c) { p = &b; }
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"a", "b"}

    def test_for_loop_pointer_walk(self):
        src = """
        int arr[10];
        int main(void){
            int *p = arr;
            int i;
            for (i = 0; i < 10; i++) p = p + 1;
            return 0;
        }
        """
        for r in both_kinds(src):
            targets = r.points_to("main", "p")
            assert any("arr" in r.display_name(t.base) for t in targets)

    def test_do_while(self):
        src = """
        int a, b, c;
        int main(void){
            int *p = &a;
            do { p = &b; } while (c);
            return 0;
        }
        """
        for r in both_kinds(src):
            # the body always executes at least once
            assert "b" in r.points_to_names("main", "p")

    def test_switch_cases_merge(self):
        src = """
        int a, b, c, sel;
        int main(void){
            int *p;
            switch (sel) {
            case 0: p = &a; break;
            case 1: p = &b; break;
            default: p = &c; break;
            }
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"a", "b", "c"}

    def test_switch_fallthrough(self):
        src = """
        int a, b, sel;
        int main(void){
            int *p = 0;
            switch (sel) {
            case 0: p = &a;   /* falls through */
            case 1: break;
            default: p = &b;
            }
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"a", "b"}

    def test_goto_forward(self):
        src = """
        int a, b, c;
        int main(void){
            int *p = &a;
            if (c) goto skip;
            p = &b;
        skip:
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"a", "b"}

    def test_goto_backward_loop(self):
        src = """
        int a, b, c;
        int main(void){
            int *p = &a;
        again:
            if (c) { p = &b; goto again; }
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"a", "b"}

    def test_ternary_merges(self):
        src = """
        int a, b, c;
        int main(void){ int *p = c ? &a : &b; return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"a", "b"}

    def test_short_circuit_side_effect_is_conditional(self):
        src = """
        int a, b, c;
        int main(void){
            int *p = &a;
            int ok = c && ((p = &b) != 0);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"a", "b"}

    def test_break_and_continue(self):
        src = """
        int a, b, c, d;
        int main(void){
            int *p = &a;
            while (1) {
                if (c) { p = &b; continue; }
                if (d) break;
                p = &a;
            }
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"a", "b"}

    def test_infinite_loop_program_still_analyzes(self):
        src = """
        int a;
        int main(void){
            int *p = &a;
            for (;;) { p = p; }
            return 0;
        }
        """
        for r in both_kinds(src):
            assert len(r.ptfs_of("main")) == 1


class TestExpressionForms:
    def test_comma_expression(self):
        src = "int a, b; int main(void){ int *p; p = (0, &b); return 0; }"
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"b"}

    def test_compound_assignment_pointer(self):
        src = """
        int arr[8];
        int main(void){ int *p = arr; p += 2; return 0; }
        """
        for r in both_kinds(src):
            targets = r.points_to("main", "p")
            assert any(t.stride == 8 for t in targets)

    def test_post_increment_value(self):
        src = """
        int arr[8];
        int main(void){ int *p = arr; int *q = p++; return 0; }
        """
        for r in both_kinds(src):
            names = r.points_to_names("main", "q")
            assert any("arr" in n for n in names)

    def test_cast_preserves_values(self):
        src = """
        int a;
        int main(void){
            int *p = &a;
            char *c = (char *)p;
            int *q = (int *)c;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"a"}

    def test_pointer_through_int_cast(self):
        """Pointers laundered through integers must survive (§3)."""
        src = """
        int a;
        int main(void){
            int *p = &a;
            unsigned long bits = (unsigned long)p;
            int *q = (int *)bits;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"a"}

    def test_arithmetic_on_cast_pointer_blurs(self):
        src = """
        struct S { int *a; int *b; } s;
        int x;
        int main(void){
            s.a = &x;
            char *raw = (char *)&s;
            int **field = (int **)(raw + 1 * 4);
            int *q = *field;
            return 0;
        }
        """
        for r in both_kinds(src):
            # conservative: q may be &x (the blurred set covers all fields)
            assert "x" in r.points_to_names("main", "q")
