"""§7's comparison with Emami et al.: invocation-graph blow-up vs PTFs.

The paper: for the 37-procedure ``compiler`` benchmark, the Emami-style
invocation graph (one node per procedure per calling context) exceeds
700,000 nodes; the PTF analysis needs only ~1.14 PTFs per procedure.

Here: the compiler-shaped benchmark's invocation graph is three orders of
magnitude larger than its procedure count while the PTF count stays ~1 per
procedure — the scaling shape that makes reanalysis-per-context
impractical and PTF reuse practical.
"""

import pytest

from repro.bench import analyze_benchmark, invocation_rows
from repro.bench.programs import load_source
from repro.baselines import build_invocation_graph
from repro.frontend.parser import load_program


@pytest.fixture(scope="module")
def compiler_row():
    rows = invocation_rows(names=["compiler"])
    assert rows
    return rows[0]


def test_invocation_graph_explodes(compiler_row):
    r = compiler_row
    # thousands of contexts for a few dozen procedures
    assert r["invocation_nodes"] > 100 * r["procedures"], r


def test_ptfs_stay_flat(compiler_row):
    r = compiler_row
    assert r["avg_ptfs"] < 1.5
    assert r["total_ptfs"] < 3 * r["procedures"]


def test_ratio_is_orders_of_magnitude(compiler_row):
    r = compiler_row
    ratio = r["invocation_nodes"] / max(r["total_ptfs"], 1)
    assert ratio > 100, f"invocation/PTF ratio only {ratio:.0f}"


def test_build_invocation_graph_bench(benchmark):
    program = load_program(load_source("compiler"), "compiler.c", "compiler")

    graph = benchmark(build_invocation_graph, program, limit=2_000_000)
    benchmark.extra_info["nodes"] = graph.nodes
    assert graph.nodes > 1000


def test_ptf_analysis_bench(benchmark):
    result = benchmark.pedantic(
        analyze_benchmark, args=("compiler",), rounds=3, iterations=1
    )
    stats = result.stats()
    benchmark.extra_info["total_ptfs"] = stats.total_ptfs
    assert stats.avg_ptfs < 1.5


def test_reanalysis_cost_estimate():
    """Reanalyzing per invocation-graph node would multiply work by the
    graph/procedures ratio; PTF analyses stay within a small factor of the
    procedure count."""
    rows = invocation_rows(names=["compiler"])
    r = rows[0]
    result = analyze_benchmark("compiler")
    analyses = result.analyzer.metrics.ptf_analyses
    assert analyses < r["invocation_nodes"] / 10
