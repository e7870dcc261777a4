"""The paper's count claims, asserted on every tier-1 run.

Each bound is the one in the ``benchmarks/bench_*.py`` module named in
the test's docstring, carried over unchanged.  The counts are
deterministic (no timing is read), so a change to PTF matching or reuse
that moves them fails here, not only in a benchmark run nobody makes.
"""

from __future__ import annotations

import pytest

from repro import AnalyzerOptions, analyze_source
from repro.bench import invocation_rows, table2_rows

#: reanalysis per calling context (§6 ablation): only the call site and
#: caller context that built a PTF may reuse it
PER_CONTEXT = AnalyzerOptions(reuse_ptfs=False, ptf_limit=1_000_000)


def call_dag(depth: int) -> str:
    """A binary call DAG: 2^depth calling contexts for ``leaf``."""
    parts = ["int g;", "void leaf(int *p) { g = *p; }"]
    parts.append("void f0(int *p) { leaf(p); leaf(p); }")
    for i in range(1, depth):
        parts.append(f"void f{i}(int *p) {{ f{i-1}(p); f{i-1}(p); }}")
    parts.append(f"int main(void) {{ int x; f{depth-1}(&x); return 0; }}")
    return "\n".join(parts)


@pytest.fixture(scope="module")
def table2():
    return table2_rows()


@pytest.fixture(scope="module")
def compiler_row():
    (row,) = invocation_rows(names=["compiler"])
    return row


def test_table2_suite_average_ptfs_in_paper_range(table2):
    """Table 2 (``bench_table2_analysis.py``): the suite average of PTFs
    per procedure is in [1.0, 1.4) (the paper's is 1.11), and at least
    half the programs need exactly one PTF per procedure."""
    assert all(not row.error for row in table2), [row.error for row in table2]
    avg = sum(row.avg_ptfs for row in table2) / len(table2)
    assert 1.0 <= avg < 1.4, avg
    exact_one = sum(1 for row in table2 if row.avg_ptfs == 1.0)
    assert exact_one >= len(table2) // 2, [(r.name, r.avg_ptfs) for r in table2]


def test_invocation_graph_dwarfs_ptfs(compiler_row):
    """§7 (``bench_invocation_blowup.py``): on compiler the invocation
    graph has more than 100 nodes per procedure, while the PTFs stay
    below 1.5 per procedure."""
    r = compiler_row
    assert r["invocation_nodes"] > 100 * r["procedures"], r
    assert r["avg_ptfs"] < 1.5, r
    assert r["total_ptfs"] < 3 * r["procedures"], r


def test_reuse_needs_linear_ptfs_where_per_context_needs_exponential():
    """§6 ablation (``bench_ablation_reuse.py``): over a call DAG of depth
    d, reuse needs d+2 PTFs (one per procedure and main) where
    reanalysis per context needs more than 2^d."""
    depth = 7
    reuse = analyze_source(call_dag(depth))
    per_context = analyze_source(call_dag(depth), options=PER_CONTEXT)
    assert reuse.stats().total_ptfs == depth + 2
    assert per_context.stats().total_ptfs > 2**depth
