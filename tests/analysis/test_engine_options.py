"""Engine options, failure modes, and statistics."""

import pytest

from repro import AnalyzerOptions, analyze_source, load_program
from repro.analysis.engine import Analyzer
from repro.analysis.intra import AnalysisBudgetExceeded


class TestHeapNaming:
    SRC = """
    #include <stdlib.h>
    void *xmalloc(unsigned n) { return malloc(n); }
    int main(void) {
        int *p = xmalloc(4);
        int *q = xmalloc(8);
        return 0;
    }
    """

    def test_static_site_merges_wrapper_allocations(self):
        r = analyze_source(self.SRC, options=AnalyzerOptions(heap_context_depth=0))
        assert r.points_to_names("main", "p") == r.points_to_names("main", "q")

    def test_context_depth_separates_wrapper_allocations(self):
        r = analyze_source(self.SRC, options=AnalyzerOptions(heap_context_depth=1))
        assert r.points_to_names("main", "p") != r.points_to_names("main", "q")

    def test_deeper_chains(self):
        src = """
        #include <stdlib.h>
        void *l1(void) { return malloc(4); }
        void *l2(void) { return l1(); }
        int main(void) {
            int *p = l2();
            int *q = l2();
            int *r = l1();
            return 0;
        }
        """
        shallow = analyze_source(src, options=AnalyzerOptions(heap_context_depth=1))
        # depth 1 distinguishes direct l1 calls from l2-wrapped ones
        assert shallow.points_to_names("main", "r") != shallow.points_to_names(
            "main", "p"
        )
        deep = analyze_source(src, options=AnalyzerOptions(heap_context_depth=2))
        assert deep.points_to_names("main", "p") != deep.points_to_names("main", "q")

    def test_depth_does_not_change_soundness(self):
        src = """
        #include <stdlib.h>
        int g;
        int **box(void) {
            int **b = malloc(sizeof(int *));
            *b = &g;
            return b;
        }
        int main(void) {
            int **b = box();
            int *q = *b;
            return 0;
        }
        """
        for depth in (0, 1, 2):
            r = analyze_source(src, options=AnalyzerOptions(heap_context_depth=depth))
            assert "g" in r.points_to_names("main", "q"), depth


class TestPTFLimit:
    def test_limit_forces_generalization(self):
        # ten distinct alias patterns against a limit of 2
        lines = ["int g0, g1;", "int *s0, *s1;"]
        body = []
        src_fns = ["void f(int **a, int **b) { *a = *b; }"]
        calls = []
        decls = []
        for i in range(6):
            decls.append(f"int v{i}; int *p{i};")
        for i in range(5):
            calls.append(f"p{i} = &v{i}; f(&p{i}, &p{(i + 1) % 6});")
        src = "\n".join(
            decls + src_fns + ["int main(void) {"] + calls + ["return 0; }"]
        )
        r = analyze_source(src, options=AnalyzerOptions(ptf_limit=2))
        assert len(r.ptfs_of("f")) <= 2
        assert r.analyzer.metrics.ptf_generalizations >= 0

    def test_default_limit_not_hit_normally(self):
        r = analyze_source(
            "int g; int *id(int *p){return p;} int main(void){ int *q = id(&g); return 0;}"
        )
        assert r.analyzer.metrics.ptf_generalizations == 0

    #: calls with genuinely distinct alias patterns (aliased arguments,
    #: distinct arguments, a null argument, indirection through pp) so
    #: the paper's PTF reuse cannot collapse them to one PTF
    BLOWUP_SRC = """
    int v0, v1, v2, v3, v4, v5;
    int *p0, *p1, *p2, *p3, *p4, *p5;
    int **pp;
    void f(int **a, int **b) { *a = *b; }
    int main(void) {
        p0 = &v0; p1 = &v1; p2 = &v2; p3 = &v3; p4 = &v4; p5 = &v5;
        f(&p0, &p0);        /* a == b        */
        f(&p1, &p2);        /* a != b        */
        f(&p3, 0);          /* b null        */
        pp = &p4;
        f(pp, &p5);         /* a through pp  */
        f(&p5, pp);         /* b through pp  */
        return 0;
    }
    """
    BLOWUP_VARS = [f"p{i}" for i in range(6)]

    def test_force_merge_counts_and_stays_sound(self):
        """§8 generalization: past ptf_limit, new contexts merge into the
        first PTF.  The merged summary must over-approximate — every
        precise binding survives — and the metrics layer must count each
        forced merge."""
        precise = analyze_source(self.BLOWUP_SRC)
        # the distinct patterns really do need >2 PTFs when unconstrained
        assert len(precise.ptfs_of("f")) >= 3
        assert precise.analyzer.metrics.ptf_generalizations == 0
        merged = analyze_source(
            self.BLOWUP_SRC, options=AnalyzerOptions(ptf_limit=2)
        )
        assert len(merged.ptfs_of("f")) <= 2
        assert merged.analyzer.metrics.ptf_generalizations >= 1
        for var in self.BLOWUP_VARS:
            p = precise.points_to_names("main", var)
            m = merged.points_to_names("main", var)
            assert p <= m, f"{var}: precise {p} not within merged {m}"

    def test_global_ptf_cap_also_generalizes(self):
        """--max-ptfs caps the whole-program PTF pool: once reached,
        procedures that already own a PTF generalize instead of growing."""
        precise = analyze_source(self.BLOWUP_SRC)
        r = analyze_source(
            self.BLOWUP_SRC, options=AnalyzerOptions(max_ptfs_total=2)
        )
        assert r.analyzer.metrics.ptf_generalizations >= 1
        for var in self.BLOWUP_VARS:
            p = precise.points_to_names("main", var)
            m = r.points_to_names("main", var)
            assert p <= m, f"{var}: precise {p} not within capped {m}"


class TestBudget:
    SRC = """
    int a, b, c;
    int main(void) {
        int *p = &a;
        while (c) { p = c ? &a : &b; }
        return 0;
    }
    """

    def test_budget_exceeded_raises_in_strict_mode(self):
        prog = load_program(self.SRC, "t.c")
        with pytest.raises(AnalysisBudgetExceeded):
            Analyzer(prog, AnalyzerOptions(max_passes=1, strict=True)).run()

    def test_budget_exceeded_degrades_by_default(self):
        # without --strict the trip is recorded, not raised: the run
        # completes and the degradation report names the guard
        prog = load_program(self.SRC, "t.c")
        analyzer = Analyzer(prog, AnalyzerOptions(max_passes=1))
        analyzer.run()
        report = analyzer.degradation
        assert not report.ok
        assert "max_passes" in report.reasons()
        assert analyzer.metrics.guard_trips >= 1

    def test_generous_budget_converges(self):
        src = """
        int a, b, c;
        int main(void) {
            int *p = &a;
            while (c) { p = c ? &a : &b; }
            return 0;
        }
        """
        r = analyze_source(src, options=AnalyzerOptions(max_passes=100))
        assert r.points_to_names("main", "p") == {"a", "b"}


class TestStatistics:
    def test_stats_keys_present(self):
        r = analyze_source("int main(void){ return 0; }")
        for key in ("ptf_created", "ptf_reuses", "ptf_analyses",
                    "recursive_calls", "external_calls", "libc_calls"):
            assert key in r.analyzer.metrics.counters()

    def test_libc_calls_counted(self):
        r = analyze_source(
            '#include <stdlib.h>\nint main(void){ int *p = malloc(4); free(p); return 0; }'
        )
        assert r.analyzer.metrics.libc_calls >= 2

    def test_external_calls_counted(self):
        r = analyze_source(
            "void mystery(void); int main(void){ mystery(); return 0; }"
        )
        assert r.analyzer.metrics.external_calls >= 1

    def test_elapsed_recorded(self):
        r = analyze_source("int main(void){ return 0; }")
        assert r.analyzer.elapsed_seconds > 0

    def test_ptf_counts_shape(self):
        r = analyze_source(
            "void f(void){} int main(void){ f(); return 0; }"
        )
        counts = r.analyzer.ptf_counts()
        assert counts == {"f": 1, "main": 1}


class TestNoMain:
    def test_missing_main_raises(self):
        prog = load_program("void helper(void) { }", "t.c")
        with pytest.raises(KeyError):
            Analyzer(prog).run()


class TestArgv:
    def test_argv_strings_reachable(self):
        src = """
        int main(int argc, char **argv) {
            char *first = argv[0];
            return first != 0;
        }
        """
        r = analyze_source(src)
        names = r.points_to_names("main", "first")
        assert any("argv" in n for n in names)

    def test_argc_holds_no_pointers(self):
        src = "int main(int argc, char **argv) { int x = argc; return x; }"
        r = analyze_source(src)
        assert r.points_to_names("main", "x") == set()
