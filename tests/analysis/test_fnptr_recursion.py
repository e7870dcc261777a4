"""Recursion discovered through function pointers (§5.4)."""

import pytest

from repro import analyze_source

from ..memory.dense_oracle import both_kinds


class TestIndirectRecursion:
    def test_self_recursion_via_pointer(self):
        src = """
        int g;
        void step(int **slot, int depth, void (*self)(int **, int, void *)) ;
        void worker(int **slot, int depth, void *self_raw) {
            void (*self)(int **, int, void *) =
                (void (*)(int **, int, void *))self_raw;
            if (depth == 0) { *slot = &g; return; }
            self(slot, depth - 1, self_raw);
        }
        int main(void) {
            int *q;
            worker(&q, 3, (void *)worker);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}
            assert r.analyzer.metrics.recursive_calls >= 1

    def test_mutual_recursion_via_table(self):
        src = """
        int g;
        void even_step(int **slot, int depth);
        void odd_step(int **slot, int depth);
        void (*steps[2])(int **, int) = { even_step, odd_step };
        void even_step(int **slot, int depth) {
            if (depth == 0) { *slot = &g; return; }
            steps[1](slot, depth - 1);
        }
        void odd_step(int **slot, int depth) {
            steps[0](slot, depth - 1);
        }
        int main(void) {
            int *q;
            even_step(&q, 4);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_callback_driving_recursion(self):
        """A visit() combinator calling back a closure that re-enters it."""
        src = """
        #include <stdlib.h>
        struct node { struct node *left; struct node *right; int key; };
        int *found;
        int target_key;

        void visit(struct node *n, void (*cb)(struct node *)) {
            if (n == 0) return;
            cb(n);
            visit(n->left, cb);
            visit(n->right, cb);
        }

        void check(struct node *n) {
            if (n->key == target_key)
                found = &n->key;
        }

        int main(void) {
            struct node *root = malloc(sizeof(struct node));
            root->left = malloc(sizeof(struct node));
            root->right = 0;
            root->left->left = root->left->right = 0;
            visit(root, check);
            return found != 0;
        }
        """
        for r in both_kinds(src):
            names = r.points_to_names("main", "found")
            assert any("heap" in n for n in names)


class TestStateMachines:
    def test_continuation_passing_chain(self):
        src = """
        int a, b;
        typedef void (*state_fn)(int **);
        void state_final(int **out) { *out = &b; }
        void state_start(int **out) {
            *out = &a;
            state_fn next = state_final;
            next(out);
        }
        int main(void) {
            int *cursor;
            state_start(&cursor);
            return 0;
        }
        """
        for r in both_kinds(src):
            # the final state strongly updates through the same slot
            assert r.points_to_names("main", "cursor") == {"b"}

    def test_dispatch_loop(self):
        src = """
        int a, b;
        typedef int (*handler)(int **);
        int h_set_a(int **s) { *s = &a; return 1; }
        int h_set_b(int **s) { *s = &b; return 0; }
        static handler handlers[2] = { h_set_a, h_set_b };
        int main(void) {
            int *p = 0;
            int state = 0;
            while (state >= 0 && state < 2) {
                state = handlers[state](&p);
                if (state == 1) break;
            }
            return p != 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"a", "b"}
