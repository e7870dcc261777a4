"""The package-level public API survives lazy exports.

Each package ``__init__`` resolves its public names on first access
(:mod:`repro._lazy`), so nothing but these checks notices a name that
drops out of a table or points at the wrong submodule.  The names are
pinned here, independently of the tables.
"""

import ast
import importlib
import os
import re

import pytest

import repro

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PUBLIC = {
    "repro": [
        "AnalysisResult", "Analyzer", "AnalyzerOptions", "LocationSet",
        "PTFStats", "ParseError", "Procedure", "Program", "analyze",
        "analyze_file", "analyze_source", "load_program",
        "load_program_from_file", "load_project", "load_project_files",
        "run_analysis",
    ],
    "repro.analysis": [
        "AnalysisBudget", "AnalysisResult", "Analyzer", "AnalyzerOptions",
        "DegradationRecord", "DegradationReport", "FrontendFault",
        "GuardTripped", "InitialEntry", "PTF", "PTFStats", "ParamMap",
        "analyze", "run_analysis",
    ],
    "repro.frontend": [
        "ParseError", "Preprocessor", "PreprocessorError", "load_program",
        "load_program_from_file", "load_project", "load_project_files",
        "parse_c_source", "preprocess",
    ],
    "repro.query": [
        "OPS", "QueryEngine", "QueryError", "STORE_FORMAT", "StaleReport",
        "StoreError", "build_store", "compute_stale",
        "compute_stale_between_stores", "load_store", "parse_query_spec",
        "procedure_ir_digest", "program_ir_digests", "seal_store",
        "source_records", "store_integrity_digest", "verify_store_integrity",
        "write_store",
    ],
    "repro.diagnostics": [
        "Counter", "DRIFT_KINDS", "Derivation", "DiffReport", "DriftRecord",
        "EVENT_VOCABULARY", "FailOn", "FaultPlan", "Gauge", "LogHistogram",
        "Metrics", "ProvenanceLog", "SNAPSHOT_FORMAT", "TelemetryRegistry",
        "Tracer", "build_snapshot", "canonical_bytes", "diff_snapshots",
        "dump_snapshot", "load_snapshot", "parse_fail_on", "write_snapshot",
    ],
    "repro.memory": [
        "ExtendedParameter", "GlobalBlock", "HeapBlock",
        "LocalBlock", "LocationSet", "MemoryBlock", "ProcedureBlock",
        "ReturnBlock", "SparseState", "StringBlock", "locations_overlap",
        "normalize_loc", "normalize_values", "ranges_overlap_mod",
    ],
    "repro.ir": [
        "AddressTerm", "AdjustTerm", "AssignNode", "BranchNode", "CallNode",
        "ContentsTerm", "DerefLoc", "EntryNode", "ExitNode", "GlobalInit",
        "GlobalSymbol", "LocExpr", "LocalSymbol", "MeetNode", "Node",
        "ProcSymbol", "Procedure", "Program", "StringSymbol", "Symbol",
        "SymbolLoc", "UnknownTerm", "ValueExpr", "compute_dominators",
        "compute_rpo", "finalize_graph", "iterated_frontier",
    ],
    "repro.baselines": [
        "AndersenAnalysis", "InvocationGraph", "SteensgaardAnalysis",
        "andersen_analyze", "build_invocation_graph", "steensgaard_analyze",
        "syntactic_call_graph",
    ],
    "repro.clients": [
        "AliasOracle", "ArrayAccess", "DeadStoreAnalysis", "LoopInfo",
        "LoopTiming", "MachineModel", "Parallelizer", "ProcedureLoops",
        "ProgramTiming", "StoreInfo", "find_dead_stores",
        "find_redundant_loads",
    ],
    "repro.bench": [
        "BenchmarkProgram", "DEFAULT_MIX", "LoadReport", "PROGRAMS",
        "Table2Row", "analyze_benchmark", "build_workload",
        "invocation_rows", "load_source", "parse_mix", "run_loadtest",
        "source_path", "table2_rows", "table2_text", "table3_rows",
        "table3_text",
    ],
}


@pytest.mark.parametrize("package", sorted(PUBLIC))
def test_all_lists_the_pinned_names(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == PUBLIC[package]


@pytest.mark.parametrize("package", sorted(PUBLIC))
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    listed = set(dir(module))
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name


@pytest.mark.parametrize("package", sorted(PUBLIC))
def test_star_import_binds_every_exported_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(PUBLIC[package]) <= set(namespace)


def test_name_resolves_to_its_defining_object():
    from repro.analysis.engine import Analyzer
    from repro.query.engine import QueryEngine

    assert repro.Analyzer is Analyzer
    assert importlib.import_module("repro.analysis").Analyzer is Analyzer
    assert importlib.import_module("repro.query").QueryEngine is QueryEngine


def test_subpackages_stay_reachable_as_attributes():
    assert repro.analysis.engine.Analyzer is repro.Analyzer
    assert repro.query.store.load_store is repro.query.load_store


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        repro.no_such_name
    with pytest.raises(AttributeError):
        repro.analysis._no_such_private_name
    assert not hasattr(repro.query, "no_such_submodule")


def test_readme_quickstart_runs():
    """Run README's quickstart block; a statement followed by a comment
    (``expr  # value``) must evaluate to that value's repr."""
    with open(os.path.join(REPO, "README.md")) as fh:
        readme = fh.read()
    block = re.search(r"## Quickstart\s+```python\n(.*?)```", readme, re.S)
    assert block, "README has no python Quickstart block"
    code = block.group(1)
    lines = code.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        if isinstance(stmt, ast.Expr):
            value = eval(source, namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            if comment:
                assert repr(value) == comment, source
                checked += 1
        else:
            exec(source, namespace)
    assert checked >= 1
