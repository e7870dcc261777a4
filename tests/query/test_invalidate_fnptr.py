"""Function-pointer retargeting must widen the stale set.

The under-invalidation hole: ``compute_stale`` propagates staleness
through the *stored* (pre-edit) call graph.  An edit that retargets a
function pointer creates an indirect call edge that exists only in the
post-edit world — the stored graph cannot name it, so the procedure
containing the indirect call site would stay "clean" while its stored
facts (resolved callees, summarized side effects) are wrong for the new
sources.  The widening rule: a changed/added procedure that is
address-taken (before or after the edit), or any movement of the
address-taken set, forces every indirect-call-containing procedure
stale.  Every scenario also checks that each procedure the report
calls clean has a byte-identical record in a fresh index.
"""

from repro import AnalyzerOptions
from repro.analysis.demand import fresh_analysis_state
from repro.analysis.results import run_analysis
from repro.frontend.parser import load_project_files
from repro.query import build_store, compute_stale

from .staleness_oracle import assert_clean_means_identical

# Unit A: the two candidate targets.
UNIT_A = """
int g;
void f(int *p) { g = *p; }
void h(int *p) { g = *p + 1; }
"""

# h's body changed structurally (the retargeted callee is also edited,
# as in a real retargeting change: the new target gains real behavior);
# a constant-only tweak would not move the lowered-IR digest, since the
# pointer IR abstracts integer values away
UNIT_A_EDITED = """
int g;
void f(int *p) { g = *p; }
void h(int *p) { if (*p) g = *p; g = *p + 2; }
"""

# Unit B: dispatch calls through the pointer; main picks the target.
UNIT_B = """
void f(int *p);
void h(int *p);
void dispatch(void (*fp)(int *), int *p) { fp(p); }
int main(void) { int x; dispatch(f, &x); return 0; }
"""

# the retargeting edit: main now passes h where it passed f
UNIT_B_EDITED = """
void f(int *p);
void h(int *p);
void dispatch(void (*fp)(int *), int *p) { fp(p); }
int main(void) { int x; dispatch(h, &x); return 0; }
"""

# control edit: a change with no function-pointer involvement at all
UNIT_B_LEAF_EDIT = """
void f(int *p);
void h(int *p);
void dispatch(void (*fp)(int *), int *p) { fp(p); }
void leaf(void) { }
int main(void) { int x; leaf(); dispatch(f, &x); return 0; }
"""


def _program(tmp_path, unit_a: str, unit_b: str):
    tmp_path.mkdir(parents=True, exist_ok=True)
    a = tmp_path / "a.c"
    b = tmp_path / "b.c"
    a.write_text(unit_a)
    b.write_text(unit_b)
    fresh_analysis_state()
    return load_project_files([str(a), str(b)])


def _index(program):
    return build_store(
        run_analysis(program, AnalyzerOptions()), program_name="fnptr"
    )


def _store(tmp_path):
    return _index(_program(tmp_path, UNIT_A, UNIT_B))


def _stale(store, edited):
    """compute_stale, checked against a fresh index of ``edited``."""
    report = compute_stale(store, edited)
    assert_clean_means_identical(report, store, _index(edited))
    return report


def test_store_records_address_taken_and_indirect_callers(tmp_path):
    store = _store(tmp_path / "orig")
    assert store["ir"]["address_taken"] == ["f"]
    assert store["ir"]["indirect_callers"] == ["dispatch"]


def test_retargeting_edit_widens_to_indirect_callers(tmp_path):
    """The two-unit regression: main retargets the pointer from f to h
    (and h's body changes).  The stored call graph has no dispatch -> h
    edge, yet dispatch's stored facts are wrong for the new sources —
    the widening must mark it stale."""
    store = _store(tmp_path / "orig")
    # precondition for the regression to be meaningful: the stored graph
    # really has no edge from dispatch to h
    assert "h" not in store["call_graph"].get("dispatch", [])

    edited = _program(tmp_path / "edit", UNIT_A_EDITED, UNIT_B_EDITED)
    report = _stale(store, edited)
    assert not report.up_to_date
    assert set(report.changed) == {"h", "main"}
    # the widening: dispatch (the indirect-call-site owner) is stale even
    # though no stored call edge connects it to any changed procedure
    assert "dispatch" in report.stale
    assert "dispatch" in report.dependents
    # f did not change, but its stored facts came from main's old
    # context through dispatch (stored p@f is ['1_p'], fresh is []):
    # it is a callee of the stale procedures, so it is stale too
    assert "f" in report.stale


def test_retarget_only_edit_still_widens(tmp_path):
    """Even when only the *caller* changes (h's body untouched), the
    address-taken set moves (f-only -> h-only), so the indirect caller
    goes stale — its resolved targets are no longer trustworthy."""
    store = _store(tmp_path / "orig")
    edited = _program(tmp_path / "edit", UNIT_A, UNIT_B_EDITED)
    report = _stale(store, edited)
    assert report.changed == ["main"]
    assert "dispatch" in report.stale


def test_unrelated_edit_does_not_widen(tmp_path):
    """Control: an edit with no address-taken involvement (a new leaf
    procedure called directly) does not widen.  main changed, so its
    callees dispatch and f are stale as callees; h, which no stale
    procedure can call, stays clean."""
    store = _store(tmp_path / "orig")
    edited = _program(tmp_path / "edit", UNIT_A, UNIT_B_LEAF_EDIT)
    report = _stale(store, edited)
    assert report.added == ["leaf"]
    assert "main" in report.stale  # leaf's direct caller
    assert report.dependents == ["dispatch", "f"]
    assert "h" in report.clean


def test_old_store_without_record_falls_back_conservatively(tmp_path):
    """Stores written before ``address_taken`` existed must still widen:
    both sides are recomputed from the new program."""
    store = _store(tmp_path / "orig")
    del store["ir"]["address_taken"]
    del store["ir"]["indirect_callers"]
    edited = _program(tmp_path / "edit", UNIT_A_EDITED, UNIT_B_EDITED)
    report = _stale(store, edited)
    assert "dispatch" in report.stale
