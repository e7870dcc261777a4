"""Recursive calls (§5.4): fixpoints, deferred evaluation, dual domains."""

import pytest

from repro import analyze_source

from ..memory.dense_oracle import both_kinds


class TestDirectRecursion:
    def test_list_walk(self):
        src = """
        struct n { struct n *next; int v; };
        int count(struct n *p) {
            if (!p) return 0;
            return 1 + count(p->next);
        }
        int main(void) {
            struct n a, b, c;
            a.next = &b; b.next = &c; c.next = 0;
            int total = count(&a);
            return total;
        }
        """
        for r in both_kinds(src):
            assert len(r.ptfs_of("count")) >= 1
            assert r.analyzer.metrics.recursive_calls >= 1

    def test_recursive_pointer_result(self):
        src = """
        struct n { struct n *next; int v; };
        struct n *last(struct n *p) {
            if (!p->next) return p;
            return last(p->next);
        }
        int main(void) {
            struct n a, b;
            a.next = &b; b.next = 0;
            struct n *t = last(&a);
            return 0;
        }
        """
        for r in both_kinds(src):
            names = r.points_to_names("main", "t")
            assert "a" in names and "b" in names

    def test_recursive_write_through_pointer(self):
        src = """
        int g;
        void fill(int **p, int depth) {
            if (depth == 0) { *p = &g; return; }
            fill(p, depth - 1);
        }
        int main(void) { int *q; fill(&q, 3); return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_factorial_style_no_pointers(self):
        src = """
        int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
        int main(void) { return fact(5); }
        """
        for r in both_kinds(src):
            assert len(r.ptfs_of("fact")) == 1

    def test_recursion_with_local_address_passed_down(self):
        src = """
        int g;
        int *deepest;
        void dig(int *level, int depth) {
            deepest = level;
            if (depth > 0) { int mine; dig(&mine, depth - 1); }
        }
        int main(void) { int top; dig(&top, 2); return 0; }
        """
        for r in both_kinds(src):
            names = r.points_to_names("main", "deepest")
            assert "top" in names or "mine" in names


class TestMutualRecursion:
    def test_even_odd(self):
        src = """
        int is_odd(int n);
        int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }
        int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }
        int main(void) { return is_even(4); }
        """
        for r in both_kinds(src):
            assert len(r.ptfs_of("is_even")) >= 1
            assert len(r.ptfs_of("is_odd")) >= 1

    def test_mutual_pointer_flow(self):
        src = """
        int g;
        void b_fn(int **p, int d);
        void a_fn(int **p, int d) {
            if (d == 0) { *p = &g; return; }
            b_fn(p, d - 1);
        }
        void b_fn(int **p, int d) { a_fn(p, d); }
        int main(void) { int *q; a_fn(&q, 2); return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "q") == {"g"}

    def test_recursive_descent_shape(self):
        """The shape that blew up Emami's invocation graph (§7): a small
        recursive-descent parser with many mutually recursive procedures."""
        src = """
        int pos;
        int expr(void);
        int primary(void) { pos++; return pos; }
        int unary(void) { if (pos) return primary(); return expr(); }
        int term(void) { int v = unary(); while (pos) v = v + unary(); return v; }
        int expr(void) { int v = term(); while (pos) v = v + term(); return v; }
        int main(void) { return expr(); }
        """
        for r in both_kinds(src):
            for proc in ("expr", "term", "unary", "primary"):
                assert len(r.ptfs_of(proc)) == 1, proc


class TestRecursiveData:
    def test_building_recursive_list_in_loop(self):
        src = """
        #include <stdlib.h>
        struct n { struct n *next; };
        int main(void) {
            struct n *head = 0;
            int i;
            for (i = 0; i < 5; i++) {
                struct n *e = malloc(sizeof(struct n));
                e->next = head;
                head = e;
            }
            struct n *p = head;
            while (p) p = p->next;
            return 0;
        }
        """
        for r in both_kinds(src):
            heads = r.points_to_names("main", "head")
            assert len(heads) == 1 and any("heap" in n for n in heads)

    def test_tree_insert(self):
        src = """
        #include <stdlib.h>
        struct t { struct t *left; struct t *right; int key; };
        struct t *insert(struct t *root, int key) {
            if (!root) {
                struct t *n = malloc(sizeof(struct t));
                n->left = 0; n->right = 0; n->key = key;
                return n;
            }
            if (key < root->key) root->left = insert(root->left, key);
            else root->right = insert(root->right, key);
            return root;
        }
        int main(void) {
            struct t *root = 0;
            root = insert(root, 5);
            root = insert(root, 3);
            return 0;
        }
        """
        for r in both_kinds(src):
            roots = r.points_to_names("main", "root")
            assert any("heap" in n for n in roots)
