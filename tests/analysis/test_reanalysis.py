"""Re-running analyses over shared Program objects stays consistent."""

import pytest

from repro import analyze, load_program
from repro.analysis.results import AnalysisResult

from ..memory.dense_oracle import DenseState, use_state

SRC = """
int a, b;
int *g;
void set(int **pp, int *v) { *pp = v; }
int main(void) {
    set(&g, &a);
    int *local = g;
    return 0;
}
"""


def test_two_analyzers_same_program_agree():
    program = load_program(SRC, "t.c")
    r1 = AnalysisResult(analyze(program))
    r2 = AnalysisResult(analyze(program))
    assert r1.points_to_names("main", "g") == r2.points_to_names("main", "g")
    assert r1.points_to_names("main", "local") == {"a"}
    assert r2.points_to_names("main", "local") == {"a"}


def test_sparse_then_dense_same_program():
    program = load_program(SRC, "t.c")
    r1 = AnalysisResult(analyze(program))
    with use_state(DenseState):
        r2 = AnalysisResult(analyze(program))
    assert r1.points_to_names("main", "g") == r2.points_to_names("main", "g")


def test_pointer_registry_monotone_across_runs():
    program = load_program(SRC, "t.c")
    analyze(program)
    g_block = program.global_block("g")
    first = set(g_block.pointer_locations)
    analyze(program)
    assert first <= g_block.pointer_locations


def test_analysis_does_not_mutate_cfg():
    program = load_program(SRC, "t.c")
    before = {p.name: len(p.rpo) for p in program.procedures.values()}
    analyze(program)
    after = {p.name: len(p.rpo) for p in program.procedures.values()}
    assert before == after
