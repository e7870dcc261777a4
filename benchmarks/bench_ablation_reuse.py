"""Ablation: PTF reuse vs Emami-style reanalysis-per-context (§6).

The paper's core comparison: Emami et al. analyze a procedure once per
invocation-graph node; Wilson-Lam analyzes once per *alias pattern* and
reuses.  With `AnalyzerOptions(reuse_ptfs=False)` this implementation
reproduces the per-context behaviour, so the cost of not reusing is
directly measurable: PTF counts track the (exponentially growing) context
count instead of the (flat) pattern count.
"""

import pytest

from repro import AnalyzerOptions, analyze_source
from repro.bench import analyze_benchmark

EMAMI = AnalyzerOptions(reuse_ptfs=False, ptf_limit=1_000_000)


def call_dag(depth: int) -> str:
    """A binary call DAG: 2^depth calling contexts for `leaf`."""
    parts = ["int g;", "void leaf(int *p) { g = *p; }"]
    parts.append("void f0(int *p) { leaf(p); leaf(p); }")
    for i in range(1, depth):
        parts.append(f"void f{i}(int *p) {{ f{i-1}(p); f{i-1}(p); }}")
    parts.append(f"int main(void) {{ int x; f{depth-1}(&x); return 0; }}")
    return "\n".join(parts)


class TestBlowupShape:
    def test_reuse_stays_flat(self):
        counts = {}
        for depth in (3, 6):
            r = analyze_source(call_dag(depth))
            counts[depth] = r.stats().total_ptfs
        # one PTF per procedure regardless of context count
        assert counts[6] - counts[3] == 3  # just the extra procedures

    def test_emami_tracks_contexts(self):
        counts = {}
        for depth in (3, 6):
            r = analyze_source(call_dag(depth), options=EMAMI)
            counts[depth] = r.stats().total_ptfs
        # 2^depth leaf contexts dominate: 8x more contexts at depth 6
        assert counts[6] > 4 * counts[3]

    def test_ratio_grows_exponentially(self):
        depth = 7
        reuse = analyze_source(call_dag(depth))
        emami = analyze_source(call_dag(depth), options=EMAMI)
        assert emami.stats().total_ptfs > 2 ** depth
        assert reuse.stats().total_ptfs == depth + 2  # procs + main

    def test_results_identical(self):
        """Reuse loses no precision relative to per-context reanalysis on
        same-pattern programs."""
        src = call_dag(5)
        reuse = analyze_source(src)
        emami = analyze_source(src, options=EMAMI)
        assert reuse.points_to_names("main", "g") == emami.points_to_names(
            "main", "g"
        )


@pytest.mark.parametrize("name", ["grep", "diff", "compress"])
def test_emami_mode_time(benchmark, name):
    result = benchmark.pedantic(
        analyze_benchmark,
        args=(name,),
        kwargs={"options": AnalyzerOptions(reuse_ptfs=False, ptf_limit=1_000_000)},
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info["total_ptfs"] = result.stats().total_ptfs
    benchmark.extra_info["analyses"] = result.analyzer.metrics.ptf_analyses


@pytest.mark.parametrize("name", ["grep", "diff", "compress"])
def test_reuse_mode_time(benchmark, name):
    result = benchmark.pedantic(
        analyze_benchmark, args=(name,), rounds=2, iterations=1
    )
    benchmark.extra_info["total_ptfs"] = result.stats().total_ptfs
    benchmark.extra_info["reuses"] = result.analyzer.metrics.ptf_reuses


@pytest.mark.parametrize("name", ["grep", "diff", "compress"])
def test_emami_creates_more_ptfs(name):
    reuse = analyze_benchmark(name)
    emami = analyze_benchmark(
        name, AnalyzerOptions(reuse_ptfs=False, ptf_limit=1_000_000)
    )
    assert emami.stats().total_ptfs >= reuse.stats().total_ptfs
