"""The paper's running example (Figure 1) and its PTFs (Figures 3–4, §2)."""

import pytest

from repro import analyze_source

from ..memory.dense_oracle import DenseState, use_state

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


@pytest.fixture(params=["sparse", "dense"])
def result(request):
    if request.param == "dense":
        with use_state(DenseState):
            return analyze_source(FIG1)
    return analyze_source(FIG1)


class TestPTFReuse:
    def test_f_has_exactly_two_ptfs(self, result):
        """S1 and S2 share a PTF (same alias pattern, different actuals);
        S3 needs its own because p and r alias (§2.1)."""
        assert len(result.ptfs_of("f")) == 2

    def test_main_has_one_ptf(self, result):
        assert len(result.ptfs_of("main")) == 1

    def test_reuse_happened(self, result):
        assert result.analyzer.metrics.ptf_reuses >= 1


class TestCaseI:
    """Unaliased PTF (Figure 3): q's target gets r's initial target."""

    def ptf_for_s1(self, result):
        for ptf in result.ptfs_of("f"):
            # the unaliased PTF binds p, q, r to three distinct parameters
            formal_entries = [
                e for e in ptf.initial_entries if "::" in e.source.base.name
            ]
            params = set()
            for e in formal_entries:
                for t in e.targets:
                    params.add(t.base.representative())
            if len(params) == 3:
                return ptf
        raise AssertionError("no unaliased PTF found")

    def test_target_of_p_gets_initial_target_of_q(self, result):
        ptf = self.ptf_for_s1(result)
        summary = ptf.summary()
        # find l_p (the parameter representing *p)
        names = {loc.base.name: vals for loc, vals in summary.items()}
        p_param = next(n for n in names if n.endswith("_p"))
        q_initial = {
            v.base.name
            for e in ptf.initial_entries
            if e.source.base.name.endswith("_q")
            for v in e.targets
        }
        got = {v.base.name for v in names[p_param]}
        assert got == q_initial

    def test_case_i_target_of_q_gets_initial_target_of_r(self, result):
        ptf = self.ptf_for_s1(result)
        summary = ptf.summary()
        names = {loc.base.name: vals for loc, vals in summary.items()}
        q_param = next(n for n in names if n.endswith("_q"))
        r_initial = {
            v.base.name
            for e in ptf.initial_entries
            if e.source.base.name.endswith("_r")
            for v in e.targets
        }
        got = {v.base.name for v in names[q_param]}
        assert got == r_initial


class TestCaseII:
    """Aliased PTF (Figure 4): p and r share one extended parameter, and the
    strong update makes q's target retain its original value."""

    def ptf_for_s3(self, result):
        for ptf in result.ptfs_of("f"):
            targets_by_formal = {}
            for e in ptf.initial_entries:
                name = e.source.base.name
                if "::" in name:
                    targets_by_formal[name.split("::")[-1]] = {
                        t.base.representative() for t in e.targets
                    }
            if targets_by_formal.get("p") == targets_by_formal.get("r"):
                return ptf
        raise AssertionError("no aliased PTF found")

    def test_p_and_r_share_parameter(self, result):
        ptf = self.ptf_for_s3(result)
        entries = {
            e.source.base.name.split("::")[-1]: e for e in ptf.initial_entries if "::" in e.source.base.name
        }
        p_params = {t.base.representative() for t in entries["p"].targets}
        r_params = {t.base.representative() for t in entries["r"].targets}
        assert p_params == r_params

    def test_q_target_retains_original_value(self, result):
        """Case II of §2.1: *q ends up with q's target's *initial* value."""
        from repro.memory.blocks import ExtendedParameter

        ptf = self.ptf_for_s3(result)
        summary = ptf.summary()
        q_param_entry = next(
            e
            for e in ptf.initial_entries
            if e.source.base.name.split("::")[-1] == "q"
        )
        q_param = next(iter(q_param_entry.targets)).base.representative()
        # the initial value of *q (the second-level entry, source based on
        # the parameter itself)
        second_level = [
            e
            for e in ptf.initial_entries
            if isinstance(e.source.base, ExtendedParameter)
            and e.source.base.representative() is q_param
        ]
        assert second_level, "expected an initial entry for *q"
        q_initial_value = second_level[0].targets
        final_q = summary.get(second_level[0].source)
        got = {v.base.representative() for v in (final_q or set())}
        want = {v.base.representative() for v in q_initial_value}
        assert got == want


class TestWholeProgramValues:
    def test_x0_points_only_to_y(self, result):
        # S1: x0 = *(&y0) = &y ; S3: same ; S2 does not write x0's cell via p
        # but writes x0 via *q = *r -> x0 = &y. Everywhere &y.
        assert result.points_to_names("main", "x0") == {"y"}

    def test_y0_values(self, result):
        # S1: y0 = &z; S3: y0 retains/becomes &y (Case II kept q's original)
        assert result.points_to_names("main", "y0") == {"y", "z"}

    def test_z0_values(self, result):
        # S2: z0 = &x; otherwise z0 = &z from main's own assignment
        assert result.points_to_names("main", "z0") == {"x", "z"}

    def test_no_unrealizable_values(self, result):
        """A context-insensitive analysis would smear &x into x0 (from S2's
        q) — full context sensitivity keeps it out."""
        assert "x" not in result.points_to_names("main", "x0")
