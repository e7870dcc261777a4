"""Resource guards and the graceful-degradation ladder.

Every guard (deadline, pass budget, call depth, PTF cap, state size,
injected faults) is tripped in isolation and checked for the same
contract:

* **default mode** — the run completes, the degradation report names the
  guard, and the partial result is a *superset* of the precise one
  (degradation is conservative, never unsound);
* **strict mode** — the same trip raises :class:`GuardTripped`.

The hypothesis property at the bottom generalizes the superset claim to
random pointer programs; the frontend tests cover the quarantine path
for unparseable / unlowerable translation units.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro import AnalyzerOptions, analyze_source, load_program
from repro.analysis.engine import Analyzer
from repro.analysis.guards import (
    AnalysisBudget,
    DegradationReport,
    GuardTripped,
    address_taken_procs,
    conservative_region,
    indirect_call_procs,
)
from repro.analysis.results import run_analysis
from repro.diagnostics.faults import FaultPlan
from repro.frontend.parser import load_project

from .test_property import ALL_VARS, programs

CHAIN_SRC = """
int x;
int *gp;
void leaf(int *p) { gp = p; }
void mid(int *p) { leaf(p); }
void top(int *p) { mid(p); }
int main(void) { top(&x); return 0; }
"""

LOOP_SRC = """
int a, b, c;
int main(void) {
    int *p = &a;
    while (c) { p = c ? &a : &b; }
    return 0;
}
"""


def _degraded_run(src: str, **option_kwargs):
    result = analyze_source(src, options=AnalyzerOptions(**option_kwargs))
    return result, result.degradation


class TestDeadline:
    def test_zero_deadline_degrades(self):
        result, report = _degraded_run(CHAIN_SRC, deadline_seconds=0.0)
        assert not report.ok
        assert "deadline" in report.reasons()
        assert result.analyzer.metrics.guard_trips >= 1

    def test_zero_deadline_strict_raises(self):
        with pytest.raises(GuardTripped) as exc:
            analyze_source(
                CHAIN_SRC,
                options=AnalyzerOptions(deadline_seconds=0.0, strict=True),
            )
        assert exc.value.reason == "deadline"

    def test_generous_deadline_is_clean(self):
        result, report = _degraded_run(CHAIN_SRC, deadline_seconds=3600.0)
        assert report.ok
        assert result.points_to_names("main", "gp") == {"x"}


class TestCallDepth:
    def test_depth_guard_degrades_but_stays_sound(self):
        precise = analyze_source(CHAIN_SRC)
        result, report = _degraded_run(CHAIN_SRC, max_call_depth=1)
        assert not report.ok
        assert "call_depth" in report.reasons()
        # the havoc stub may over-approximate, but must keep the truth
        assert precise.points_to_names("main", "gp") <= result.points_to_names(
            "main", "gp"
        )
        assert result.analyzer.metrics.degraded_calls >= 1

    def test_depth_guard_strict_raises(self):
        with pytest.raises(GuardTripped) as exc:
            analyze_source(
                CHAIN_SRC, options=AnalyzerOptions(max_call_depth=1, strict=True)
            )
        assert exc.value.reason == "call_depth"

    def test_records_carry_call_sites(self):
        _, report = _degraded_run(CHAIN_SRC, max_call_depth=1)
        assert any(rec.call_site for rec in report.records)

    def test_huge_recursion_does_not_hit_python_limit(self):
        # 500 nested calls with the default budget of 200: the depth
        # guard must fire before CPython's RecursionError does
        parts = ["int x; int *gp;", "void f0(int *p) { gp = p; }"]
        n = 500
        for i in range(1, n):
            parts.append(f"void f{i}(int *p) {{ f{i - 1}(p); }}")
        parts.append(f"int main(void) {{ f{n - 1}(&x); return 0; }}")
        result, report = _degraded_run("\n".join(parts))
        assert "call_depth" in report.reasons()
        # main's own call must still bind soundly
        assert result.points_to_names("main", "gp") >= set()


class TestMaxPasses:
    def test_pass_budget_degrades(self):
        result, report = _degraded_run(LOOP_SRC, max_passes=1)
        assert "max_passes" in report.reasons()
        assert report.partial  # main itself tripped

    def test_pass_budget_on_callee_keeps_main_sound(self):
        src = """
        int a, b, c;
        int *gp;
        void churn(void) {
            int *p = &a;
            while (c) { p = c ? &a : &b; }
            gp = p;
        }
        int main(void) { churn(); return 0; }
        """
        precise = analyze_source(src)
        result, report = _degraded_run(src, max_passes=1)
        assert "max_passes" in report.reasons()
        assert "churn" in report.quarantined
        assert precise.points_to_names("main", "gp") <= result.points_to_names(
            "main", "gp"
        )


class TestPtfCap:
    def test_cap_degrades_unseen_procedures(self):
        result, report = _degraded_run(CHAIN_SRC, max_ptfs_total=1)
        assert "ptf_cap" in report.reasons()
        precise = analyze_source(CHAIN_SRC)
        assert precise.points_to_names("main", "gp") <= result.points_to_names(
            "main", "gp"
        )


class TestStateEntries:
    def test_state_size_guard_trips(self):
        result, report = _degraded_run(CHAIN_SRC, max_state_entries=0)
        assert "state_entries" in report.reasons()


class TestInjectedFaults:
    def test_exhaustion_quarantines_and_stays_sound(self):
        plan = FaultPlan(exhaust_names=frozenset({"leaf"}))
        precise = analyze_source(CHAIN_SRC)
        result, report = _degraded_run(CHAIN_SRC, faults=plan)
        assert "leaf" in report.quarantined
        assert "injected" in report.reasons()
        assert precise.points_to_names("main", "gp") <= result.points_to_names(
            "main", "gp"
        )

    def test_nonconvergence_trips_pass_budget(self):
        plan = FaultPlan(nonconverge_names=frozenset({"leaf"}))
        _, report = _degraded_run(CHAIN_SRC, faults=plan, max_passes=5)
        assert "max_passes" in report.reasons()
        assert "leaf" in report.quarantined

    def test_injection_is_deterministic(self):
        plan = FaultPlan(seed=7, exhaust_rate=0.5)
        first = [plan.exhaust(f"proc{i}") for i in range(50)]
        again = [
            FaultPlan(seed=7, exhaust_rate=0.5).exhaust(f"proc{i}")
            for i in range(50)
        ]
        assert first == again
        assert any(first) and not all(first)

    def test_strict_mode_raises_injected(self):
        plan = FaultPlan(exhaust_names=frozenset({"leaf"}))
        with pytest.raises(GuardTripped) as exc:
            analyze_source(
                CHAIN_SRC, options=AnalyzerOptions(faults=plan, strict=True)
            )
        assert exc.value.reason == "injected"


class TestReportShape:
    def test_clean_run_has_no_degradation_key(self):
        result = analyze_source(CHAIN_SRC)
        assert result.degradation.ok
        assert "degradation" not in result.to_dict()

    def test_degraded_run_serializes(self):
        import json

        result, report = _degraded_run(CHAIN_SRC, max_call_depth=1)
        payload = result.to_dict()["degradation"]
        json.dumps(payload)  # must be JSON-clean
        assert payload["records"]
        assert payload["reasons"]["call_depth"] >= 1
        stats = result.analyzer.stats_dict()
        assert stats["degradation"]["reasons"] == payload["reasons"]

    def test_records_deduplicate_across_passes(self):
        report = DegradationReport()
        for _ in range(5):
            report.record("p", "deadline", "detail", call_site="main@x.c:1")
        assert len(report.records) == 1

    def test_budget_snapshot_in_report(self):
        result, report = _degraded_run(CHAIN_SRC, max_call_depth=1)
        budget = result.to_dict()["degradation"]["budget"]
        assert budget["max_call_depth"] == 1


class TestConservativeRegion:
    def test_region_covers_reached_globals(self):
        prog = load_program(CHAIN_SRC, "t.c")
        region = conservative_region(prog, "leaf")
        assert "gp" in region.globals

    def test_indirect_call_blurs_to_world(self):
        src = """
        int g;
        void a(void) { g = 1; }
        void (*fp)(void) = a;
        void caller(void) { fp(); }
        int main(void) { caller(); return 0; }
        """
        prog = load_program(src, "t.c")
        region = conservative_region(prog, "caller")
        assert region.world


class TestFrontendQuarantine:
    GOOD = (
        "int g; int *gp;\n"
        "void set(int *p) { gp = p; }\n"
        "int main(void) { int x; set(&x); return 0; }\n"
    )

    def test_parse_error_quarantines_unit(self):
        prog = load_project(
            [("good.c", self.GOOD), ("bad.c", "int broken( {{{")], tolerant=True
        )
        assert [f.reason for f in prog.frontend_failures] == ["parse_error"]
        result = run_analysis(prog)
        assert not result.degradation.ok
        assert result.points_to_names("main", "gp") == {"x"}

    def test_lower_error_quarantines_single_procedure(self):
        units = [
            ("a.c", self.GOOD),
            ("b.c", "int *weird(int *q) { break; return q; }"),
        ]
        prog = load_project(units, tolerant=True)
        fault = prog.frontend_failures[0]
        assert fault.reason == "lower_error" and fault.proc == "weird"
        assert "weird" not in prog.procedures
        assert "main" in prog.procedures  # the rest of the project survives

    def test_strict_load_still_raises(self):
        from repro.frontend.parser import ParseError

        with pytest.raises(ParseError):
            load_project([("bad.c", "int broken( {{{")])

    def test_injected_parse_failure(self):
        plan = FaultPlan(parse_names=frozenset({"bad.c"}))
        prog = load_project(
            [("good.c", self.GOOD), ("bad.c", self.GOOD)],
            tolerant=True,
            faults=plan,
        )
        assert [f.reason for f in prog.frontend_failures] == ["injected"]


class TestBudgetObject:
    def test_from_options_copies_knobs(self):
        opts = AnalyzerOptions(
            deadline_seconds=5.0, max_passes=7, max_call_depth=9
        )
        budget = AnalysisBudget.from_options(opts)
        assert budget.deadline_seconds == 5.0
        assert budget.max_passes == 7
        assert budget.max_call_depth == 9

    def test_deadline_clock(self):
        budget = AnalysisBudget(deadline_seconds=3600.0)
        budget.start()
        assert not budget.deadline_exceeded()
        assert budget.remaining_seconds() > 0
        expired = AnalysisBudget(deadline_seconds=0.0)
        expired.start()
        assert expired.deadline_exceeded()


# -- address-taken procedures and indirect callers (the store's records) ---

FNPTR_SOURCE = """
int g;
void f(int *p) { g = *p; }
void h(int *p) { g = *p + 1; }
void dispatch(void (*fp)(int *), int *p) { fp(p); }
int main(void) {
  int x;
  dispatch(f, &x);
  h(&x);
  return 0;
}
"""


def _fnptr_program():
    return load_program(FNPTR_SOURCE, "fnptr.c", "fnptr")


def test_address_taken_excludes_direct_call_targets():
    taken = address_taken_procs(_fnptr_program())
    # f escapes as a call argument; h and dispatch only ever appear as
    # direct call targets
    assert taken == {"f"}


def test_indirect_call_procs():
    assert indirect_call_procs(_fnptr_program()) == {"dispatch"}


def test_global_initializer_takes_address():
    src = """
    void cb(void) { }
    void (*table[1])(void) = { cb };
    int main(void) { table[0](); return 0; }
    """
    program = load_program(src, "tbl.c", "tbl")
    assert "cb" in address_taken_procs(program)


# ---------------------------------------------------------------------------
# the soundness property: degradation only ever *adds* points-to targets
# ---------------------------------------------------------------------------


@given(programs())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_degraded_superset_of_precise(source):
    """With every call from main havoced (depth budget 1), each variable's
    degraded points-to set must contain the precise one."""
    precise = analyze_source(source)
    degraded = analyze_source(source, options=AnalyzerOptions(max_call_depth=1))
    for var in ALL_VARS:
        p = precise.points_to_names("main", var)
        d = degraded.points_to_names("main", var)
        assert p <= d, f"{var}: precise {p} not within degraded {d}\n{source}"


@given(programs())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_injected_exhaustion_superset_of_precise(source):
    """Quarantining every helper procedure keeps main's results a superset."""
    plan = FaultPlan(
        exhaust_names=frozenset({"set_ptr", "get_addr", "rec_store"})
    )
    precise = analyze_source(source)
    degraded = analyze_source(source, options=AnalyzerOptions(faults=plan))
    for var in ALL_VARS:
        p = precise.points_to_names("main", var)
        d = degraded.points_to_names("main", var)
        assert p <= d, f"{var}: precise {p} not within degraded {d}\n{source}"
