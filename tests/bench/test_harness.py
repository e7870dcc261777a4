"""Benchmark registry and harness sanity (fast subset only)."""

import os

import pytest

from repro.bench import PROGRAMS, analyze_benchmark, table2_rows, table2_text
from repro.bench.harness import Table2Row, invocation_rows, table3_rows
from repro.bench.harness import main as harness_main
from repro.bench.programs import by_name, load_source, source_path

from ..memory.dense_oracle import DenseState, use_state


class TestRegistry:
    def test_thirteen_programs(self):
        assert len(PROGRAMS) == 13

    def test_matches_paper_row_order(self):
        # Table 2 is sorted by (paper) size
        sizes = [p.paper_lines for p in PROGRAMS]
        assert sizes == sorted(sizes)

    def test_all_sources_exist(self):
        for p in PROGRAMS:
            assert os.path.isfile(source_path(p.name)), p.name

    def test_sources_have_main(self):
        for p in PROGRAMS:
            assert "int main(" in load_source(p.name), p.name

    def test_by_name(self):
        assert by_name("grep").paper_procedures == 9
        with pytest.raises(KeyError):
            by_name("nope")

    def test_paper_values_recorded(self):
        compiler = by_name("compiler")
        assert compiler.paper_avg_ptfs == 1.14
        assert compiler.paper_procedures == 37

    def test_table3_programs_flagged(self):
        assert by_name("alvinn").table3_invocations
        assert by_name("ear").table3_invocations
        assert by_name("grep").table3_invocations is None


class TestHarness:
    def test_analyze_benchmark_small(self):
        result = analyze_benchmark("allroots")
        stats = result.stats()
        assert stats.procedures >= 4
        assert stats.avg_ptfs >= 1.0

    def test_table2_rows_subset(self):
        rows = table2_rows(names=["allroots", "grep"])
        assert [r.name for r in rows] == ["allroots", "grep"]
        for r in rows:
            assert r.seconds > 0
            assert r.avg_ptfs >= 1.0

    def test_table2_text_format(self):
        rows = table2_rows(names=["allroots"])
        text = table2_text(rows)
        assert "allroots" in text and "paper" in text

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_never_probed_memo_reports_null_hit_rate(self, jobs):
        """A run that never probed the lookup memo (here: a zero
        deadline degrades every call) has no hit rate: its Table 2 row
        says ``null`` in JSON and ``-`` in text, not an all-miss 0.0."""
        import json

        from repro import AnalyzerOptions

        rows = table2_rows(
            names=["allroots", "grep"],
            options=AnalyzerOptions(deadline_seconds=0.0),
            jobs=jobs,
        )
        for row in rows:
            assert not row.error and row.degraded
            assert row.cache_hit_rate is None
            assert json.loads(json.dumps(row.as_dict()))["cache_hit_rate"] is None
            cells = row.display().split()
            assert cells[5] == "-", row.display()

    def test_invocation_rows_subset(self):
        rows = invocation_rows(names=["grep"])
        assert rows[0]["name"] == "grep"
        assert rows[0]["invocation_nodes"] >= rows[0]["procedures"] - 1

    def test_retired_record_flag_is_a_usage_error(self, capsys):
        # performance history is the benchmark ledger (benchmarks/perf)
        with pytest.raises(SystemExit) as exc:
            harness_main(["--record"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def fake_row(name="allroots", **kwargs):
    defaults = dict(
        name=name, lines=100, procedures=5, seconds=0.5,
        avg_ptfs=1.0, paper=by_name(name),
        cache_hit_rate=0.5, dom_walk_steps=1000,
    )
    defaults.update(kwargs)
    return Table2Row(**defaults)


class TestRowStatus:
    def test_status_property(self):
        assert fake_row().status == "ok"
        assert fake_row(error="boom").status == "error"
        assert fake_row(degraded=2).status == "degraded"

    def test_as_dict_includes_status_and_degradation(self):
        row = fake_row(degraded=1,
                       degradation={"quarantined": ["f"], "reasons": {"x": 1}})
        d = row.as_dict()
        assert d["status"] == "degraded"
        assert d["degraded"] == 1
        assert d["degradation"]["quarantined"] == ["f"]
        clean = fake_row().as_dict()
        assert clean["status"] == "ok"
        assert "error" not in clean and "degradation" not in clean


class TestFaultIsolation:
    """One bad program must not take down a batch run."""

    def test_crash_becomes_error_row(self, monkeypatch):
        import repro.bench.harness as harness

        orig = harness.analyze_benchmark

        def boom(name, options=None):
            if name == "grep":
                raise RuntimeError("synthetic crash")
            return orig(name, options)

        monkeypatch.setattr(harness, "analyze_benchmark", boom)
        rows = harness.table2_rows(names=["allroots", "grep"])
        by = {r.name: r for r in rows}
        assert not by["allroots"].error
        assert "synthetic crash" in by["grep"].error
        text = harness.table2_text(rows)
        assert "ERROR" in text and "1 of 2 programs failed" in text

    def test_fault_tolerant_false_raises(self, monkeypatch):
        import repro.bench.harness as harness

        def boom(name, options=None):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(harness, "analyze_benchmark", boom)
        with pytest.raises(RuntimeError):
            harness.table2_rows(names=["allroots"], fault_tolerant=False)

    def test_error_row_serializes_additively(self):
        from repro.bench.harness import Table2Row, _error_row

        prog = by_name("allroots")
        row = _error_row(prog, "timeout after 1s")
        d = row.as_dict()
        assert d["error"] == "timeout after 1s"
        clean = table2_rows(names=["allroots"])[0].as_dict()
        assert "error" not in clean and "degraded" not in clean

    def test_subprocess_row_round_trip(self):
        from repro.bench.harness import _subprocess_row

        row = _subprocess_row(by_name("allroots"), timeout=120.0, options=None)
        assert not row.error
        assert row.procedures >= 4
        assert row.avg_ptfs >= 1.0

    def test_subprocess_timeout_becomes_error_row(self):
        from repro.bench.harness import _subprocess_row

        row = _subprocess_row(by_name("compiler"), timeout=0.05, options=None)
        assert "timeout" in row.error

    def test_degraded_options_forward_into_subprocess(self):
        from repro import AnalyzerOptions
        from repro.bench.harness import _subprocess_row

        row = _subprocess_row(
            by_name("allroots"),
            timeout=120.0,
            options=AnalyzerOptions(max_passes=1),
        )
        assert not row.error
        assert row.degraded >= 1


class TestSuiteAnalyzability:
    """Every program in the suite must analyze cleanly under both state
    representations — the suite is itself a large integration test."""

    @pytest.mark.parametrize("name", [p.name for p in PROGRAMS])
    def test_analyzes_sparse(self, name):
        result = analyze_benchmark(name)
        assert result.stats().avg_ptfs < 2.0

    @pytest.mark.parametrize("name", ["allroots", "grep", "compress", "simulator"])
    def test_analyzes_dense(self, name):
        with use_state(DenseState):
            result = analyze_benchmark(name)
        assert result.stats().procedures > 0
