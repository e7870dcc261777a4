"""Scaling behaviour: the analysis must stay near-linear when alias
patterns repeat (§8: "As long as most procedures are always called with
the same alias patterns, our algorithm will continue to avoid exponential
behavior")."""

import time

import pytest

from repro import analyze_source


def generated_program(n_funcs: int, calls_per_func: int = 2) -> str:
    """A deep call tree of setter procedures, every call with the same
    alias pattern."""
    parts = ["int cell0;", "int *slot0;"]
    parts.append("void f0(int **s, int *v) { *s = v; }")
    for i in range(1, n_funcs):
        callees = "; ".join(
            f"f{max(0, i - 1 - k)}(s, v)" for k in range(calls_per_func)
        )
        parts.append(
            f"void f{i}(int **s, int *v) {{ {callees}; }}"
        )
    parts.append(
        f"int main(void) {{ f{n_funcs - 1}(&slot0, &cell0); return 0; }}"
    )
    return "\n".join(parts)


class TestDeepCallTrees:
    def test_100_procedure_chain_single_ptf_each(self):
        # one call per function: the alias pattern is identical everywhere
        src = generated_program(100, calls_per_func=1)
        r = analyze_source(src)
        stats = r.stats()
        assert stats.procedures == 101
        assert stats.avg_ptfs == 1.0
        assert r.points_to_names("main", "slot0") == {"cell0"}

    def test_100_procedure_dag_bounded_ptfs(self):
        """With two sibling calls, the second call site legitimately sees
        *s aliasing v (the first sibling already stored): exactly two
        alias patterns exist, so at most two PTFs per procedure — bounded
        by the patterns, not by the (exponential) context count."""
        src = generated_program(100, calls_per_func=2)
        r = analyze_source(src)
        stats = r.stats()
        assert stats.procedures == 101
        assert stats.max_ptfs <= 2
        assert stats.avg_ptfs <= 2.0
        assert r.points_to_names("main", "slot0") == {"cell0"}

    def test_ptf_analyses_linear_not_exponential(self):
        """With calls_per_func=2 a context-sensitive reanalysis would do
        ~2^n procedure analyses; PTF reuse keeps it ~n."""
        src = generated_program(60)
        r = analyze_source(src)
        analyses = r.analyzer.metrics.ptf_analyses
        assert analyses < 8 * 61, analyses

    def test_time_scales_gently(self):
        times = {}
        for n in (20, 80):
            src = generated_program(n)
            t0 = time.perf_counter()
            analyze_source(src)
            times[n] = time.perf_counter() - t0
        # 4x the procedures should cost far less than 16x the time
        assert times[80] < max(times[20], 0.01) * 40


class TestWidePrograms:
    def test_many_independent_procedures(self):
        parts = ["int g;"]
        calls = []
        for i in range(80):
            parts.append(f"int *get{i}(void) {{ return &g; }}")
            calls.append(f"int *p{i} = get{i}();")
        parts.append("int main(void) { " + " ".join(calls) + " return 0; }")
        r = analyze_source("\n".join(parts))
        assert r.stats().procedures == 81
        assert r.stats().avg_ptfs == 1.0

    def test_one_procedure_many_compatible_sites(self):
        parts = ["int g;", "int *id(int *p) { return p; }"]
        calls = [f"int *p{i} = id(&g);" for i in range(60)]
        parts.append("int main(void) { " + " ".join(calls) + " return 0; }")
        r = analyze_source("\n".join(parts))
        assert len(r.ptfs_of("id")) == 1
        assert r.analyzer.metrics.ptf_reuses >= 59


class TestDeepData:
    def test_long_pointer_chain(self):
        depth = 12
        parts = ["int base;"]
        decls = ["int *p1 = &base;"]
        for i in range(2, depth + 1):
            decls.append(f"int {'*' * i}p{i} = &p{i - 1};")
        deref = "*" * (depth - 1) + f"p{depth}"
        parts.append(
            "int main(void) { "
            + " ".join(decls)
            + f" int *bottom = {deref}; return 0; }}"
        )
        r = analyze_source("\n".join(parts))
        assert r.points_to_names("main", "bottom") == {"base"}
