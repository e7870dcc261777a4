"""Semantic snapshot-differ tests: the drift taxonomy.

Real precision drift is produced by analyzing two *seeded divergent
sources* (one adds an extra assignment through a pointer), so the
precision-loss records and their per-procedure attribution come from the
actual pipeline, not hand-built snapshots.
"""

import json

import pytest

from repro.analysis.engine import AnalyzerOptions
from repro.analysis.results import run_analysis
from repro.diagnostics.diff import (
    DRIFT_KINDS,
    DiffReport,
    FailOn,
    diff_snapshots,
    parse_fail_on,
)
from repro.diagnostics.snapshot import build_snapshot
from repro.frontend.parser import load_program
from repro.memory.pointsto import reset_interning

BASE_SOURCE = """
int g;
int h;
void set(int **slot, int *v) { *slot = v; }
int main(void) { int *p; set(&p, &g); return *p; }
"""

# same program, but main's pointer can now also reach h: a genuine
# precision loss in main (p's points-to set grew)
WIDENED_SOURCE = """
int g;
int h;
void set(int **slot, int *v) { *slot = v; }
int main(void) { int *p; set(&p, &g); set(&p, &h); return *p; }
"""


def snap_of(source, name="prog", **option_kwargs):
    reset_interning()
    options = AnalyzerOptions(**option_kwargs)
    program = load_program(source, f"{name}.c", name)
    result = run_analysis(program, options)
    return build_snapshot(result, options=options, program_name=name)


def clone(snap):
    return json.loads(json.dumps(snap))


class TestBitIdentical:
    def test_self_diff(self):
        a = snap_of(BASE_SOURCE)
        b = snap_of(BASE_SOURCE)
        report = diff_snapshots(a, b)
        assert report.identical
        assert report.classes() == {"bit-identical"}

    def test_invalid_snapshot_rejected(self):
        a = snap_of(BASE_SOURCE)
        with pytest.raises(ValueError, match="not a valid repro snapshot"):
            diff_snapshots(a, {"format": a["format"]})

    def test_older_volatile_section_is_not_compared(self):
        # snapshots written by older versions carry timers and memory
        # gauges; they describe the host, so they never make drift
        a = snap_of(BASE_SOURCE)
        b = clone(a)
        a["volatile"] = {"perf": {"elapsed_seconds": 0.01}}
        b["volatile"] = {"perf": {"elapsed_seconds": 10.0},
                         "memory": {"tracemalloc_peak_kb": 1e6}}
        report = diff_snapshots(a, b)
        assert report.classes() == {"bit-identical"}


class TestPrecisionDrift:
    def test_widened_source_is_precision_loss_with_attribution(self):
        old = snap_of(BASE_SOURCE)
        new = snap_of(WIDENED_SOURCE)
        report = diff_snapshots(old, new)
        assert "precision-loss" in report.classes()
        losses = [r for r in report.records if r.kind == "precision-loss"]
        assert any(r.proc == "main" for r in losses)
        # the gained (loc, target) fact names h
        assert any("h" in r.detail for r in losses)
        # and at least one record carries a ready-made explain query
        assert any(r.explain.endswith("@main") for r in losses)

    def test_reverse_direction_is_precision_gain(self):
        old = snap_of(WIDENED_SOURCE)
        new = snap_of(BASE_SOURCE)
        report = diff_snapshots(old, new)
        gains = [r for r in report.records if r.kind == "precision-gain"]
        # the h fact vanished from main, attributed and explainable
        # (different *sources* can additionally rename extended
        # parameters, so we assert the gain, not the absence of noise)
        assert any(
            r.proc == "main" and "h" in r.detail and "vanished" in r.detail
            for r in gains
        )

    def test_semantic_knob_shows_up_as_drift(self):
        free = snap_of(BASE_SOURCE)
        capped = snap_of(BASE_SOURCE, max_ptfs_total=1)
        report = diff_snapshots(free, capped)
        assert not report.identical
        assert "precision-loss" in report.classes()

    def test_snapshot_without_solution_is_rejected(self):
        # fact-level attribution is the one way drift is attributed, so
        # a snapshot without its solution cannot be compared
        old = snap_of(BASE_SOURCE)
        new = snap_of(WIDENED_SOURCE)
        del new["solution"]
        with pytest.raises(ValueError, match="new snapshot carries no solution"):
            diff_snapshots(old, new)

    def test_new_quarantine_is_precision_loss(self):
        a = snap_of(BASE_SOURCE)
        b = clone(a)
        b["degradation"]["quarantined"] = ["set"]
        report = diff_snapshots(a, b)
        losses = [r for r in report.records if r.kind == "precision-loss"]
        assert any(r.proc == "set" and "quarantined" in r.detail for r in losses)


class TestShapeChange:
    def test_added_procedure(self):
        a = snap_of(BASE_SOURCE)
        b = clone(a)
        b["digest"]["procedures"]["brand_new"] = "0" * 64
        b["digest"]["program"] = "0" * 64  # digests disagree
        report = diff_snapshots(a, b)
        shapes = [r for r in report.records if r.kind == "shape-change"]
        assert any(r.proc == "brand_new" for r in shapes)

    def test_call_graph_change(self):
        a = snap_of(BASE_SOURCE)
        b = clone(a)
        b["call_graph"]["main"] = []
        b["digest"]["program"] = "f" * 64  # digests disagree
        report = diff_snapshots(a, b)
        assert any(
            r.kind == "shape-change" and "call graph" in r.detail
            for r in report.records
        )


class TestFailOn:
    def test_parse_classes_and_thresholds(self):
        spec = parse_fail_on("precision-loss, shape-change")
        assert spec.kinds == {"precision-loss", "shape-change"}
        # thresholds were perf/mem tuning; speed and memory are host
        # properties that benchmarks/perf compares, not the differ
        for spec in ("precision-loss,perf:5%", "mem:20%"):
            with pytest.raises(ValueError, match="unknown --fail-on class"):
                parse_fail_on(spec)

    def test_parse_bare_perf_and_mem(self):
        for spec in ("perf", "mem"):
            with pytest.raises(ValueError, match="unknown --fail-on class"):
                parse_fail_on(spec)

    def test_drift_kinds_are_what_was_computed(self):
        assert DRIFT_KINDS == (
            "precision-loss", "precision-gain", "shape-change",
            "bit-identical",
        )

    def test_parse_empty(self):
        assert parse_fail_on(None).kinds == set()
        assert parse_fail_on("").kinds == set()

    def test_unknown_class_raises(self):
        with pytest.raises(ValueError, match="unknown --fail-on class"):
            parse_fail_on("precison-loss")

    def test_bad_threshold_raises(self):
        with pytest.raises(ValueError, match="unknown --fail-on class"):
            parse_fail_on("perf:fast")

    def test_failed_intersects_present_classes(self):
        old = snap_of(BASE_SOURCE)
        new = snap_of(WIDENED_SOURCE)
        report = diff_snapshots(old, new)
        assert report.failed(parse_fail_on("precision-loss")) == {"precision-loss"}
        assert report.failed(parse_fail_on("bit-identical")) == set()


class TestReportSurface:
    def test_as_dict_and_summary_are_ordered(self):
        old = snap_of(BASE_SOURCE)
        new = snap_of(WIDENED_SOURCE)
        report = diff_snapshots(old, new)
        payload = report.as_dict()
        kinds = [r["kind"] for r in payload["records"]]
        assert kinds == sorted(kinds, key=DRIFT_KINDS.index)
        assert payload["identical"] is False
        assert set(payload["classes"]) == report.classes()
        assert len(report.summary_lines()) == len(report.records)

    def test_unknown_kind_rejected(self):
        report = DiffReport("a", "b")
        with pytest.raises(AssertionError):
            report.add("not-a-kind")

    def test_failed_with_default_failon(self):
        report = DiffReport("a", "b")
        report.add("precision-loss", proc="main")
        assert report.failed(FailOn()) == set()
