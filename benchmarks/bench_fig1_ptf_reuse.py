"""Figure 1 / Figures 3-4: PTF reuse on the paper's running example.

The 12-line example program is analyzed; S1 and S2 share one PTF because
their alias patterns match even though the actual parameters differ, and
S3 (where p and r alias) gets a second PTF.  The benchmark times the whole
analysis of the example, over the sparse state and over the dense test
oracle (``tests/memory/dense_oracle.py``).
"""

import contextlib

import pytest

from repro import analyze_source
from tests.memory.dense_oracle import DenseState, use_state

FIG1 = """
int x, y, z;
int *x0, *y0, *z0;

void f(int **p, int **q, int **r) {
    *p = *q;
    *q = *r;
}

int main(void) {
    int test1 = 1, test2 = 0;
    x0 = &x; y0 = &y; z0 = &z;
    if (test1)
        f(&x0, &y0, &z0);      /* S1 */
    else if (test2)
        f(&z0, &x0, &y0);      /* S2 */
    else
        f(&x0, &y0, &x0);      /* S3 */
    return 0;
}
"""


@pytest.mark.parametrize("kind", ["sparse", "dense"])
def test_fig1_analysis(benchmark, kind):
    swap = use_state(DenseState) if kind == "dense" else contextlib.nullcontext()
    with swap:
        result = benchmark(analyze_source, FIG1)
    # one PTF for S1+S2, one for S3
    assert len(result.ptfs_of("f")) == 2
    benchmark.extra_info["ptfs_f"] = len(result.ptfs_of("f"))
    benchmark.extra_info["reuses"] = result.analyzer.metrics.ptf_reuses


def test_fig3_unaliased_ptf_shared_by_s1_s2():
    result = analyze_source(FIG1)
    # exactly one PTF binds p, q, r to three distinct parameters — it
    # serves both S1 and S2 (Figure 3's "Parametrized PTF for Calls at
    # S1 and S2")
    shared = 0
    for ptf in result.ptfs_of("f"):
        params = set()
        for e in ptf.initial_entries:
            if "::" in e.source.base.name:
                params |= {t.base.representative() for t in e.targets}
        if len(params) == 3:
            shared += 1
    assert shared == 1


def test_fig4_aliased_ptf_for_s3():
    result = analyze_source(FIG1)
    aliased = 0
    for ptf in result.ptfs_of("f"):
        by_formal = {}
        for e in ptf.initial_entries:
            if "::" in e.source.base.name:
                by_formal[e.source.base.name.split("::")[-1]] = {
                    t.base.representative() for t in e.targets
                }
        if by_formal.get("p") and by_formal.get("p") == by_formal.get("r"):
            aliased += 1
    assert aliased == 1


def test_case_analysis_not_needed_for_case_iii():
    """§2.1: Case III (may-alias-but-not-definite) never occurs in this
    program, so no third PTF exists."""
    result = analyze_source(FIG1)
    assert len(result.ptfs_of("f")) == 2
