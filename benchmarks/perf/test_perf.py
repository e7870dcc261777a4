"""Tests of the performance benchmark itself: ``pytest benchmarks/perf -q``."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.perf import common, edits

common.import_repro()

from repro.analysis.results import run_analysis  # noqa: E402
from repro.frontend.parser import load_program  # noqa: E402
from repro.query import QueryEngine, build_store  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def compiler():
    text = (common.PROGRAMS / "compiler.c").read_text()
    program = load_program(text, "compiler.c", "compiler")
    store = build_store(run_analysis(program))
    return text, store


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads(common.BENCHMARK_JSON.read_text())


# -- statistics -------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50), (100, 90), (199, 90), (200, 95),
     (999, 95), (1000, 99), (40000, 99)],
)
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert common.tail_percentile(count) == expected


def test_quantile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert common.quantile(values, 0.5) == 50.0
    assert common.quantile(values, 0.9) == 90.0
    assert common.quantile(values, 0.99) == 99.0
    assert common.quantile(values, 1.0) == 100.0
    assert common.quantile([7.0], 0.99) == 7.0


def test_self_times_subtract_children():
    spans = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "b", "start": 5.0, "end": 9.0, "parent": 0},
        {"name": "a", "start": 6.0, "end": 7.0, "parent": 2},
    ]
    assert common.self_times(spans) == {"root": 3.0, "a": 4.0, "b": 3.0}


# -- edits ------------------------------------------------------------------


def test_every_eligible_compiler_edit_answers_its_unique_target(compiler):
    text, store = compiler
    eligible = edits.eligible_procedures(text, store["call_graph"])
    assert "main" in eligible and len(eligible) >= 20
    before = QueryEngine(store, cache_size=0)
    reads = [r for r in _points_to_requests(store)]
    for n, proc in enumerate(eligible, start=1):
        edited = edits.apply_edit(text, proc, n)
        assert edited.count("\n") == text.count("\n")  # no line moves
        program = load_program(edited, "compiler.c", "compiler")
        after = QueryEngine(build_store(run_analysis(program)), cache_size=0)
        answer = after.query({"op": "points_to", "var": edits.EDIT_VAR, "proc": proc})
        assert answer["targets"] == [edits.edit_target(n)], proc
        # no line moves, so every other points-to fact reads as before
        for req in reads:
            assert after.query(dict(req)) == before.query(dict(req)), (proc, req)


def _points_to_requests(store):
    for proc, rec in sorted(store["index"]["procedures"].items()):
        for var in sorted(rec["vars"]):
            yield {"op": "points_to", "var": var, "proc": proc}


def test_edited_reference_answers_as_a_fresh_index_of_the_edit(tmp_path):
    from repro.analysis.engine import AnalyzerOptions
    from repro.frontend.parser import load_project_files

    from benchmarks.perf.workloads import EditedReference

    text = (common.PROGRAMS / "compiler.c").read_text()
    source = tmp_path / "compiler.c"
    source.write_text(text)
    options = AnalyzerOptions()
    store = build_store(
        run_analysis(load_project_files([str(source)], name="compiler"), options),
        options=options, program_name="compiler", sources=[str(source)],
    )
    request = {"op": "modref", "proc": "gen_binop"}
    pristine = json.dumps(QueryEngine(store, cache_size=0).query(dict(request)), sort_keys=True)
    reference = EditedReference(source, text, ["gen_expr"], store)
    # an edit inside the gen_expr/gen_binop cycle reshapes its contexts
    assert reference(1, request) not in (None, pristine)
    assert reference(0, request) is None and reference(2, request) is None
    assert source.read_text() == text


def test_read_checker_accepts_neighbouring_edit_answers(compiler):
    from benchmarks.perf.serve import ReadSet

    _, store = compiler
    reads = ReadSet(store, 50, 1)
    other = json.dumps({"op": "other"}, sort_keys=True)
    line = json.dumps({"id": None, "ok": True, "status": 0, "result": {"op": "other"}}).encode()
    reads.record(0, line, context=2)
    assert reads.mismatches() == 1
    assert reads.mismatches(lambda c, req: other if c == 3 else None) == 0
    assert reads.mismatches(lambda c, req: other if c == 5 else None) == 1


def test_procedure_bodies_found_in_every_program():
    for path in sorted(common.PROGRAMS.glob("*.c")):
        bodies = edits.procedure_bodies(path.read_text())
        assert "main" in bodies, path.name


# -- seeds ------------------------------------------------------------------


def test_seed_fixes_requests_and_edits(compiler):
    from benchmarks.perf.serve import ReadSet

    text, store = compiler
    eligible = edits.eligible_procedures(text, store["call_graph"])
    assert ReadSet(store, 500, 3).lines == ReadSet(store, 500, 3).lines
    assert ReadSet(store, 500, 3).lines != ReadSet(store, 500, 4).lines
    assert edits.edit_sequence(eligible, 20, 3) == edits.edit_sequence(eligible, 20, 3)
    assert edits.edit_sequence(eligible, 20, 3) != edits.edit_sequence(eligible, 20, 4)
    # every procedure once before any repeats
    longer = edits.edit_sequence(eligible, len(eligible) + 5, 3)
    assert sorted(longer[: len(eligible)]) == sorted(eligible)


def test_seed_fixes_cli_queries(compiler):
    from benchmarks.perf.workloads import draw_queries

    _, store = compiler
    assert draw_queries(store, "compiler", 1) == draw_queries(store, "compiler", 1)
    assert draw_queries(store, "compiler", 1) != draw_queries(store, "compiler", 2)


def test_cli_queries_draw_on_every_program_and_seed():
    # string-literal names with spaces have no textual query form
    from benchmarks.perf.workloads import LARGE, SMALL, draw_queries

    for name in SMALL + LARGE:
        text = (common.PROGRAMS / f"{name}.c").read_text()
        store = build_store(run_analysis(load_program(text, f"{name}.c", name)))
        for seed in range(20):
            specs, answers = draw_queries(store, name, seed)
            assert len(specs) == len(answers) == 3


# -- the declaration and the output -----------------------------------------


def test_benchmark_json_follows_the_contract(benchmark_json):
    doc = benchmark_json
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/perf"]
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    from benchmarks.perf.workloads import WORKLOADS

    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_reports_exactly_the_declared_metrics(benchmark_json, trace, kind):
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "serve-edit",
         "--seed", "5", "--seconds", "2", "--trace", trace],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in benchmark_json[kind]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in doc["metrics"].values())


def test_refuses_to_run_without_the_product(tmp_path):
    bench = tmp_path / "benchmarks" / "perf"
    bench.mkdir(parents=True)
    for path in (common.ROOT / "benchmarks" / "perf").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(common.BENCHMARK_JSON.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "cli-small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
