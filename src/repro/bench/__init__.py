"""Benchmark suite registry and measurement harness (Tables 2 & 3)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".programs": ("PROGRAMS", "BenchmarkProgram", "load_source", "source_path"),
    ".harness": (
        "Table2Row",
        "table2_rows",
        "table2_text",
        "table3_rows",
        "table3_text",
        "invocation_rows",
        "analyze_benchmark",
    ),
    ".loadgen": ("DEFAULT_MIX", "build_workload"),
})
