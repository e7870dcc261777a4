"""CFG construction through the front end: node kinds, edges, shapes."""

import pytest

from repro import load_program
from repro.ir.nodes import (
    AssignNode,
    BranchNode,
    CallNode,
    EntryNode,
    ExitNode,
    MeetNode,
)


def cfg_of(src, proc="main"):
    program = load_program(src, "t.c")
    return program.procedures[proc]


def kinds(proc):
    return [n.kind for n in proc.rpo]


class TestStraightLine:
    def test_empty_function(self):
        proc = cfg_of("int main(void) { return 0; }")
        ks = kinds(proc)
        assert ks[0] == "entry" and ks[-1] == "exit"

    def test_assignments_in_order(self):
        proc = cfg_of("int a; int main(void){ int *p = &a; int *q = p; return 0; }")
        assigns = [n for n in proc.rpo if isinstance(n, AssignNode)]
        descs = [n.describe() for n in assigns]
        assert any("p = &a" in d for d in descs)
        assert any("q =" in d for d in descs)

    def test_exit_reachable(self):
        proc = cfg_of("int main(void) { for(;;); return 0; }")
        # even with an infinite loop, exit exists in the graph, reached
        # from the ``return 0`` assignment
        assert proc.exit in proc.rpo
        [pred] = proc.exit.preds
        assert isinstance(pred, AssignNode)
        assert proc.finalized


class TestBranching:
    def test_if_makes_meet(self):
        proc = cfg_of("int c; int main(void){ if (c) c = 1; return 0; }")
        assert any(isinstance(n, MeetNode) for n in proc.rpo)
        assert any(isinstance(n, BranchNode) for n in proc.rpo)

    def test_if_else_two_paths(self):
        proc = cfg_of(
            "int a,b,c; int main(void){ int *p; if (c) p=&a; else p=&b; return 0; }"
        )
        branch = next(n for n in proc.rpo if isinstance(n, BranchNode))
        assert len(branch.succs) == 2

    def test_while_has_back_edge(self):
        proc = cfg_of("int c; int main(void){ while (c) c--; return 0; }")
        back = [
            (n, s)
            for n in proc.rpo
            for s in n.succs
            if s.rpo_index >= 0 and s.rpo_index < n.rpo_index
        ]
        assert back, "expected a back edge"

    def test_switch_dispatch_edges(self):
        proc = cfg_of(
            """
            int s;
            int main(void){
                switch (s) { case 0: break; case 1: break; default: break; }
                return 0;
            }
            """
        )
        dispatch = max(
            (n for n in proc.rpo if isinstance(n, BranchNode)),
            key=lambda n: len(n.succs),
        )
        assert len(dispatch.succs) >= 3

    def test_return_jumps_to_exit(self):
        proc = cfg_of(
            "int c; int main(void){ if (c) return 1; return 0; }"
        )
        # two return paths: exit has at least two predecessors
        assert len(proc.exit.preds) >= 2


class TestCalls:
    def test_call_node_created(self):
        proc = cfg_of("void f(void); int main(void){ f(); return 0; }")
        assert len(proc.call_nodes()) == 1

    def test_call_args_lowered(self):
        proc = cfg_of(
            "int a; void f(int *p); int main(void){ f(&a); return 0; }"
        )
        call = proc.call_nodes()[0]
        assert len(call.args) == 1
        assert "&" in str(call.args[0])

    def test_call_in_expression_gets_temp(self):
        proc = cfg_of(
            "int f(void); int main(void){ int x = f() + 1; return x; }"
        )
        call = proc.call_nodes()[0]
        assert call.dst is not None

    def test_void_call_has_no_dst(self):
        proc = cfg_of("void f(void); int main(void){ f(); return 0; }")
        assert proc.call_nodes()[0].dst is None

    def test_call_site_names_are_distinct(self):
        proc = cfg_of(
            "void f(void); int main(void){ f(); f(); return 0; }"
        )
        sites = {c.site for c in proc.call_nodes()}
        assert len(sites) == 2


class TestProcedures:
    def test_formals_registered(self):
        program = load_program(
            "void f(int *a, char **b) { } int main(void){ return 0; }", "t.c"
        )
        f = program.procedures["f"]
        assert [x.name for x in f.formals] == ["a", "b"]
        assert all(x.is_formal for x in f.formals)

    def test_locals_registered(self):
        proc = cfg_of("int main(void){ int x; double y; return 0; }")
        assert "x" in proc.locals and "y" in proc.locals

    def test_local_blocks_unique_per_symbol(self):
        proc = cfg_of("int main(void){ int x; return 0; }")
        sym = proc.locals["x"]
        assert proc.local_block(sym) is proc.local_block(sym)

    def test_stats(self):
        program = load_program(
            "void f(void) { } int main(void){ f(); return 0; }", "t.c"
        )
        stats = program.stats()
        assert stats["procedures"] == 2
        assert stats["call_sites"] == 1

    def test_source_lines_counted(self):
        program = load_program(
            "int main(void)\n{\n  int x;\n  return 0;\n}\n", "t.c"
        )
        assert program.procedures["main"].source_lines >= 3
