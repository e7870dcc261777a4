"""A PTF matches the context that built it (§5.2, Figure 6).

``Frame.to_callee_targets`` binds a parameter that subsumes others to the
union of its own values and its members' bindings.  Matching reads a PTF
this very call site built in the same creation order, so a call whose
inputs did not change reuses the PTF instead of resetting and rebuilding
it (a *home update*).
"""

from __future__ import annotations

import json
import os

import pytest

from repro import analyze_source, load_program
from repro.analysis.engine import Analyzer, AnalyzerOptions
from repro.analysis.intra import ProcEvaluator
from repro.analysis.ptf import ParamMap, reset_ptf_counter
from repro.analysis.results import AnalysisResult
from repro.bench.programs import load_source, program_dir
from repro.diagnostics.snapshot import build_snapshot
from repro.memory.locset import LocationSet
from repro.memory.pointsto import reset_interning
from repro.query.store import procedure_record

#: ``visit`` reads its formal first (one parameter for ``{c2, c4}``),
#: then ``all->next``, whose values ``{c2, c3}`` alias that parameter: a
#: fourth parameter subsumes the formal's and stands for ``{c2, c3, c4}``.
#: The loop in ``main`` re-dispatches the call with the same inputs.
SUBSUMED_FORMAL = """
struct cell { struct cell *next; };
struct cell *all;
struct cell c1, c2, c3, c4;

struct cell *visit(struct cell *x)
{
    struct cell *y = x;
    struct cell *p = all->next;
    if (p == y)
        return y;
    return p;
}

int main(int argc, char **argv)
{
    struct cell *q = 0;
    int i;
    c1.next = &c2;
    if (argc > 1)
        c1.next = &c3;
    all = &c1;
    for (i = 0; i < 3; i++)
        q = visit(argc > 2 ? &c2 : &c4);
    return q == 0;
}
"""

BENCHMARKS = sorted(f[:-2] for f in os.listdir(program_dir()) if f.endswith(".c"))
EXPECTED = os.path.join(
    os.path.dirname(program_dir()), "perf", "expected_digests.json"
)


def test_subsumed_formal_converges_without_home_updates():
    result = analyze_source(SUBSUMED_FORMAL)
    metrics = result.analyzer.metrics
    (ptf,) = result.ptfs_of("visit")
    formal = ptf.params[0]
    assert formal.subsumed_by is not None  # the case under test
    assert metrics.ptf_home_updates == 0
    assert metrics.ptf_created == 1
    assert metrics.ptf_analyses == 1
    assert result.points_to_names("main", "q") == {"c2", "c3", "c4"}


def test_as_built_match_binds_subsuming_parameter_to_the_union():
    result = analyze_source(SUBSUMED_FORMAL)
    analyzer = result.analyzer
    frame = analyzer.main_frame
    main = result.program.procedures["main"]
    (node,) = [n for n in main.call_nodes() if str(n.target) == "&visit"]
    (ptf,) = result.ptfs_of("visit")
    formal, subsumer = ptf.params[0], ptf.params[0].subsumed_by
    trial = analyzer._record_actuals(
        frame, ProcEvaluator(analyzer, frame), node, ptf.proc
    )
    # normalized, the subsuming parameter binds to the formal's values
    # alone and then rejects ``all->next``
    assert analyzer.match_ptf(ptf, frame, node, trial.copy()) is None
    assert analyzer.match_ptf(ptf, frame, node, trial, as_built=True) is False
    names = lambda param: {result.display_name(loc.base) for loc in trial.param_values[param]}
    assert names(formal) == {"c2", "c4"}
    assert names(subsumer) == {"c2", "c3", "c4"}


class SelfMatchAnalyzer(Analyzer):
    """Re-matches every PTF right after a home update rebuilt it, against
    the actuals of the call that rebuilt it."""

    def __init__(self, program, options=None) -> None:
        super().__init__(program, options)
        self.rebuilt: set[int] = set()
        self.checked = 0
        self.renamed = 0
        self.failures: list[str] = []

    def get_ptf(self, frame, node, proc, map_):
        before = self.metrics.ptf_home_updates
        ptf, need_visit = super().get_ptf(frame, node, proc, map_)
        if self.metrics.ptf_home_updates > before:
            self.rebuilt.add(ptf.uid)
        return ptf, need_visit

    def _analyze_ptf(self, frame, node, proc, ptf, map_):
        merged = _subsumed(frame)
        ok = super()._analyze_ptf(frame, node, proc, ptf, map_)
        if ok and ptf.uid in self.rebuilt:
            self.rebuilt.discard(ptf.uid)
            if _subsumed(frame) != merged:
                # the build subsumed caller parameters: inputs the PTF saw
                # as distinct objects are one caller object now, a new
                # context that no longer matches
                self.renamed += 1
                return ok
            self.checked += 1
            trial = ParamMap()
            trial.actuals = dict(map_.actuals)
            # the as-built walk fetches nothing, so the check leaves the
            # analysis on its own path
            if self.match_ptf(ptf, frame, node, trial, as_built=True) is None:
                self.failures.append(f"{proc.name} PTF#{ptf.uid} at {node.site}")
        return ok


def _subsumed(frame) -> int:
    ptf = getattr(frame, "ptf", None)
    if ptf is None:
        return 0
    return sum(1 for p in ptf.params if p.subsumed_by is not None)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_rebuilt_ptf_matches_its_own_context(name):
    reset_interning()
    reset_ptf_counter()
    program = load_program(load_source(name), f"{name}.c", name)
    analyzer = SelfMatchAnalyzer(program).run()
    assert not analyzer.failures, analyzer.failures
    # the check itself changes nothing
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[name]
    snap = build_snapshot(AnalysisResult(analyzer), program_name=name)
    assert snap["digest"]["program"] == expected


def _fake_ptf(analyzer, proc_name, home_caller):
    ptf = analyzer.new_ptf(analyzer.program.procedures[proc_name])
    ptf.home = (-5, home_caller)
    ptf.users.add(home_caller)
    return ptf


def test_dropping_a_caller_keeps_the_ptfs_a_live_caller_applied():
    analyzer = analyze_source(SUBSUMED_FORMAL).analyzer
    main_ptf = analyzer.main_frame.ptf
    dropped = _fake_ptf(analyzer, "visit", main_ptf.uid)
    orphan = _fake_ptf(analyzer, "visit", dropped.uid)
    grandchild = _fake_ptf(analyzer, "visit", orphan.uid)
    shared = _fake_ptf(analyzer, "visit", dropped.uid)
    shared.users.add(main_ptf.uid)
    from_root = _fake_ptf(analyzer, "visit", dropped.uid)
    from_root.users.add(-1)
    analyzer.ptfs["visit"].remove(dropped)
    del analyzer._ptf_by_uid[dropped.uid]
    analyzer._drop_home_children(dropped.uid)
    live = analyzer.ptfs["visit"]
    assert orphan not in live and grandchild not in live
    assert orphan.uid not in analyzer._ptf_by_uid
    assert shared in live and from_root in live


def test_generalized_dispatch_records_its_caller():
    source = SUBSUMED_FORMAL.replace(
        "int main(",
        "struct cell *again(struct cell *x) { return visit(x); }\n\nint main(",
    ).replace("return q == 0;", "q = again(&c1);\n    return q == 0;")
    result = analyze_source(source, options=AnalyzerOptions(ptf_limit=1))
    analyzer = result.analyzer
    (ptf,) = result.ptfs_of("visit")
    (again,) = result.ptfs_of("again")
    assert analyzer.metrics.ptf_generalizations
    assert again.uid in ptf.users


def test_results_name_parameters_through_every_live_call():
    analyzer = analyze_source(SUBSUMED_FORMAL).analyzer
    main_ptf = analyzer.main_frame.ptf
    callee = _fake_ptf(analyzer, "visit", main_ptf.uid)
    moved = _fake_ptf(analyzer, "visit", main_ptf.uid)
    dead = _fake_ptf(analyzer, "visit", main_ptf.uid)
    analyzer.ptfs["visit"].remove(dead)
    del analyzer._ptf_by_uid[dead.uid]
    a = callee.new_param("a")
    c1, c2, c3, c4 = (
        frozenset({LocationSet(analyzer.program.global_block(g), 0, 0)})
        for g in ("c1", "c2", "c3", "c4")
    )

    def call(site, caller, ptf, values):
        map_ = ParamMap()
        map_.bind_param(a, values)
        analyzer.applied[(site, caller)] = (ptf, map_)

    call(-11, main_ptf.uid, callee, c2)
    call(-12, -1, callee, frozenset())
    call(-13, dead.uid, callee, c3)  # its caller was dropped
    call(-14, main_ptf.uid, callee, c4)
    call(-14, main_ptf.uid, moved, c1)  # the call now applies another PTF
    names = AnalysisResult(analyzer)._concretize(callee, {LocationSet(a, 0, 0)})
    assert names == set(c2)


def test_interp_answers_name_no_parameter_of_the_queried_procedure():
    reset_interning()
    reset_ptf_counter()
    program = load_program(load_source("interp"), "interp.c", "interp")
    result = AnalysisResult(Analyzer(program).run())
    leaks = [
        (proc, var, loc[1])
        for proc in result.program.procedures
        for var, rec in procedure_record(result, proc)["vars"].items()
        for loc in rec["locs"]
        if loc[0].startswith(f"xparam:{proc}:")
    ]
    assert not leaks
    assert "cons" in result.program.procedures
