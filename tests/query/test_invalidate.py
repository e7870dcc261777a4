"""Staleness detection: IR digests and the minimal recomputation set.

The headline property (the incrementality acceptance check) is the
two-unit test below: edit one procedure and only that procedure, its
transitive call-graph *callers* and their transitive *callees* go stale
— and re-analysis proves the clean procedures really did keep their
solution digests.  Every scenario also checks, through
:func:`assert_clean_means_identical`, that each clean procedure's index
record is byte-identical in the old store and in a fresh index.
"""

import pytest

from repro import AnalyzerOptions
from repro.analysis.demand import fresh_analysis_state
from repro.frontend.parser import load_project_files
from repro.query import (
    build_store,
    compute_stale,
    compute_stale_between_stores,
    procedure_ir_digest,
    program_ir_digests,
)

from .staleness_oracle import assert_clean_means_identical

UNIT_A = """
int g;
void leaf(int *p) { g = *p; }
void mid(int *p) { leaf(p); }
"""

UNIT_B = """
void mid(int *p);
void top(int *p) { mid(p); }
int main(void) { int x; top(&x); return 0; }
"""

# leaf's body changed: it now writes through the pointer twice
UNIT_A_EDITED = """
int g;
void leaf(int *p) { g = *p; g = *p + 1; }
void mid(int *p) { leaf(p); }
"""


def _program(tmp_path, unit_a: str, unit_b: str = UNIT_B, tag: str = ""):
    tmp_path.mkdir(parents=True, exist_ok=True)
    a = tmp_path / f"a{tag}.c"
    b = tmp_path / f"b{tag}.c"
    a.write_text(unit_a)
    b.write_text(unit_b)
    # keep the file *names* identical across the edit by using separate
    # directories per variant instead (names feed nothing hashed, but
    # being strict here keeps the test honest)
    fresh_analysis_state()
    return load_project_files([str(a), str(b)])


def _analyze(program):
    from repro.analysis.results import run_analysis

    return run_analysis(program, AnalyzerOptions())


def _index(program):
    return build_store(_analyze(program), program_name="two-unit")


def _stale(store, edited):
    """compute_stale, checked against a fresh index of ``edited``."""
    report = compute_stale(store, edited)
    assert_clean_means_identical(report, store, _index(edited))
    return report


# -- digest stability -------------------------------------------------------


def test_digest_deterministic_across_processes_worth_of_runs(tmp_path):
    p1 = _program(tmp_path / "r1", UNIT_A)
    p2 = _program(tmp_path / "r2", UNIT_A)
    assert program_ir_digests(p1) == program_ir_digests(p2)


def test_line_shift_does_not_dirty_siblings(tmp_path):
    """Source coordinates are excluded: adding a comment block above
    every procedure must not move any digest."""
    shifted = "\n\n/* a\n   very\n   long\n   comment */\n\n" + UNIT_A
    d1 = program_ir_digests(_program(tmp_path / "r1", UNIT_A))
    d2 = program_ir_digests(_program(tmp_path / "r2", shifted))
    assert d1["procedures"] == d2["procedures"]


def test_new_string_literal_does_not_renumber_other_units(tmp_path):
    """String literals hash by text, not by their program-wide ``<strN>``
    interning index — a new literal in unit A must not dirty unit B's
    procedures."""
    with_str = UNIT_A.replace(
        "void mid(int *p) { leaf(p); }",
        'char *s1 = "alpha";\nvoid mid(int *p) { leaf(p); }',
    )
    p1 = _program(tmp_path / "r1", UNIT_A)
    p2 = _program(tmp_path / "r2", with_str)
    d1 = program_ir_digests(p1)["procedures"]
    d2 = program_ir_digests(p2)["procedures"]
    for proc in ("top", "main"):  # unit B's procedures
        assert d1[proc] == d2[proc], proc


def test_editing_one_proc_moves_only_its_digest(tmp_path):
    d1 = program_ir_digests(_program(tmp_path / "r1", UNIT_A))["procedures"]
    d2 = program_ir_digests(
        _program(tmp_path / "r2", UNIT_A_EDITED)
    )["procedures"]
    assert d1["leaf"] != d2["leaf"]
    for name in ("mid", "top", "main"):
        assert d1[name] == d2[name], name


def test_procedure_digest_covers_structure(tmp_path):
    p1 = _program(tmp_path / "r1", UNIT_A)
    p2 = _program(
        tmp_path / "r2", UNIT_A.replace("leaf(p);", "if (*p) leaf(p);")
    )
    assert procedure_ir_digest(
        p1.procedures["mid"], p1
    ) != procedure_ir_digest(p2.procedures["mid"], p2)


# -- the incrementality property (acceptance) -------------------------------


def test_two_unit_edit_marks_only_proc_and_dependents_stale(tmp_path):
    """Edit ``leaf`` in unit A: the stale set is exactly ``leaf`` plus
    its transitive callers (``mid``, ``top``, ``main``) and their
    callees — here that is everything, so the complementary program
    below checks that a procedure nobody stale calls stays clean."""
    program = _program(tmp_path / "orig", UNIT_A)
    store = _index(program)

    edited = _program(tmp_path / "edit", UNIT_A_EDITED)
    report = _stale(store, edited)
    assert not report.up_to_date
    assert report.changed == ["leaf"]
    assert report.added == [] and report.removed == []
    # dependents: every transitive caller of leaf (and their callees)
    assert report.dependents == ["main", "mid", "top"]
    assert report.stale == ["leaf", "main", "mid", "top"]
    assert report.clean == []
    assert not report.globals_changed


def test_unrelated_procedure_stays_clean_with_matching_solution(tmp_path):
    """A procedure no stale procedure calls is *clean* —
    and its per-procedure solution digest is bit-identical when the
    edited program is re-analyzed (the proof that skipping it is
    sound)."""
    unit_b = UNIT_B + "\nint lonely(int *q) { return *q; }\n"
    program = _program(tmp_path / "orig", UNIT_A, unit_b)
    store = _index(program)

    edited = _program(tmp_path / "edit", UNIT_A_EDITED, unit_b)
    report = _stale(store, edited)
    assert "lonely" in report.clean
    assert "lonely" not in report.stale

    # re-analyze the edited program: the clean procedure's solution
    # digest must not have moved (stale ones may)
    result2 = _analyze(edited)
    from repro.diagnostics.snapshot import build_snapshot

    old_digests = store["snapshot"]["digest"]["procedures"]
    new_digests = build_snapshot(
        result2, program_name="two-unit", include_solution=True
    )["digest"]["procedures"]
    assert old_digests["lonely"] == new_digests["lonely"]


def test_up_to_date_on_identical_sources(tmp_path):
    program = _program(tmp_path / "orig", UNIT_A)
    store = _index(program)
    again = _program(tmp_path / "again", UNIT_A)
    report = _stale(store, again)
    assert report.up_to_date
    assert report.summary_lines() == [
        "store is up to date (all procedure digests match)"
    ]


def test_added_procedure_invalidates_its_callers(tmp_path):
    program = _program(tmp_path / "orig", UNIT_A)
    store = _index(program)
    grown = UNIT_A.replace(
        "void mid(int *p) { leaf(p); }",
        "void extra(int *p) { *p = 1; }\n"
        "void mid(int *p) { leaf(p); extra(p); }",
    )
    edited = _program(tmp_path / "edit", grown)
    report = _stale(store, edited)
    assert report.added == ["extra"]
    assert "mid" in report.changed  # its body changed too
    assert "extra" in report.stale
    # mid's callers invalidate through the stored graph
    assert {"top", "main"} <= set(report.stale)


def test_removed_procedure_invalidates_former_callers(tmp_path):
    program = _program(tmp_path / "orig", UNIT_A)
    store = _index(program)
    shrunk = UNIT_A.replace("void mid(int *p) { leaf(p); }",
                            "void mid(int *p) { (void)p; }")
    shrunk = shrunk.replace("void leaf(int *p) { g = *p; }", "")
    edited = _program(tmp_path / "edit", shrunk)
    report = _stale(store, edited)
    assert report.removed == ["leaf"]
    assert "mid" in report.stale
    assert not report.up_to_date


def test_global_environment_change_invalidates_everything(tmp_path):
    program = _program(tmp_path / "orig", UNIT_A)
    store = _index(program)
    edited = _program(tmp_path / "edit", UNIT_A.replace("int g;", "int g, h;"))
    report = _stale(store, edited)
    assert report.globals_changed
    assert report.stale == sorted(edited.procedures)
    assert report.clean == []


def test_report_dict_round_trip(tmp_path):
    program = _program(tmp_path / "orig", UNIT_A)
    store = _index(program)
    report = _stale(store, _program(tmp_path / "edit", UNIT_A_EDITED))
    d = report.as_dict()
    assert d["up_to_date"] is False
    assert d["changed"] == ["leaf"]
    assert set(d) == {"up_to_date", "changed", "added", "removed",
                      "dependents", "globals_changed", "stale", "clean"}


# -- store-to-store staleness (the hot-swap cache carryover) -----------------


def _store_for(tmp_path, unit_a: str, unit_b: str = UNIT_B):
    return _index(_program(tmp_path, unit_a, unit_b))


def test_identical_stores_are_up_to_date(tmp_path):
    old = _store_for(tmp_path / "r1", UNIT_A)
    new = _store_for(tmp_path / "r2", UNIT_A)
    report = compute_stale_between_stores(old, new)
    assert_clean_means_identical(report, old, new)
    assert report.up_to_date
    assert report.clean == sorted(new["ir"]["procedures"])


def test_between_stores_matches_compute_stale(tmp_path):
    """The recorded-digest comparison agrees with the live one: editing
    ``leaf`` marks it and its transitive callers stale, nothing else."""
    unit_b = UNIT_B + "\nint lonely(int *q) { return *q; }\n"
    old = _store_for(tmp_path / "orig", UNIT_A, unit_b)
    new = _store_for(tmp_path / "edit", UNIT_A_EDITED, unit_b)
    report = compute_stale_between_stores(old, new)
    assert_clean_means_identical(report, old, new)
    assert report.changed == ["leaf"]
    assert report.stale == ["leaf", "main", "mid", "top"]
    assert report.clean == ["lonely"]
    assert not report.globals_changed


def test_between_stores_marks_callees_of_an_edited_caller(tmp_path):
    """main passes a different pointer to an unedited callee: the callee
    is stale in the store-to-store report too (reload drops its cached
    answers), and a procedure nobody calls stays clean."""
    unit = """
int g, h;
int *pick(int *p) { return p; }
int *lonely(int *q) { return q; }
int main(void) { int *a = pick(&g); return *a; }
"""
    old = _store_for(tmp_path / "orig", unit, "")
    new = _store_for(tmp_path / "edit", unit.replace("pick(&g)", "pick(&h)"), "")
    report = compute_stale_between_stores(old, new)
    assert_clean_means_identical(report, old, new)
    assert report.changed == ["main"]
    assert report.dependents == ["pick"]
    assert report.clean == ["lonely"]


def test_between_stores_globals_change_dirties_everything(tmp_path):
    old = _store_for(tmp_path / "orig", UNIT_A)
    new = _store_for(
        tmp_path / "edit", UNIT_A.replace("int g;", "int g, h;")
    )
    report = compute_stale_between_stores(old, new)
    assert_clean_means_identical(report, old, new)
    assert report.globals_changed
    assert report.stale == sorted(new["ir"]["procedures"])
    assert report.clean == []


def test_between_stores_missing_globals_digest_is_conservative(tmp_path):
    """A store from before the globals digest was recorded cannot prove
    anything clean — everything goes stale rather than risking a wrong
    cache carryover."""
    old = _store_for(tmp_path / "r1", UNIT_A)
    new = _store_for(tmp_path / "r2", UNIT_A)
    old["ir"].pop("globals", None)
    report = compute_stale_between_stores(old, new)
    assert_clean_means_identical(report, old, new)
    assert report.globals_changed
    assert report.clean == []


def test_between_stores_added_and_removed(tmp_path):
    grown = UNIT_A.replace(
        "void mid(int *p) { leaf(p); }",
        "void extra(int *p) { *p = 1; }\n"
        "void mid(int *p) { leaf(p); extra(p); }",
    )
    old = _store_for(tmp_path / "orig", UNIT_A)
    new = _store_for(tmp_path / "edit", grown)
    forward = compute_stale_between_stores(old, new)
    assert_clean_means_identical(forward, old, new)
    assert forward.added == ["extra"]
    backward = compute_stale_between_stores(new, old)
    assert_clean_means_identical(backward, new, old)
    assert backward.removed == ["extra"]


CALLBACK = """
void qsort(void *base, unsigned long n, unsigned long size,
           int (*cmp)(const void *, const void *));
int x, y;
int *arr[2];
int cmp(const void *a, const void *b) { int *const *pa = a; int *r = *pa; return *r; }
int main(void) { arr[0] = &x; qsort(arr, 2, sizeof(int *), cmp); return 0; }
"""


def test_callback_of_an_external_is_a_callee(tmp_path):
    """The qsort model calls ``cmp`` with main's array: no internal call
    site names cmp, yet main's edit moves cmp's facts."""
    store = _index(_program(tmp_path / "orig", CALLBACK, "", tag="cb"))
    edited = _program(
        tmp_path / "edit", CALLBACK.replace("= &x;", "= &y;"), "", tag="cb"
    )
    report = _stale(store, edited)
    assert report.changed == ["main"]
    assert "cmp" in report.stale
    old = store["index"]["procedures"]["cmp"]["vars"]["r"]["targets"]
    assert old == ["x"]
