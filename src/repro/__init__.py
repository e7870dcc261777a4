"""repro — context-sensitive pointer analysis for C programs.

A faithful reproduction of Wilson & Lam, "Efficient Context-Sensitive
Pointer Analysis for C Programs" (PLDI 1995): partial transfer functions,
extended parameters, location sets, and a sparse flow-sensitive points-to
analysis, together with the baselines and clients the paper evaluates
against.

Quickstart::

    from repro import analyze_source

    result = analyze_source('''
        int g;
        void set(int **p, int *v) { *p = v; }
        int *q;
        int main(void) { set(&q, &g); return 0; }
    ''')
    assert result.points_to_names("main", "q") == {"g"}
    print(result.stats())
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .analysis.engine import AnalyzerOptions
    from .analysis.results import AnalysisResult

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis.engine": ("analyze", "Analyzer", "AnalyzerOptions"),
    ".analysis.results": ("AnalysisResult", "PTFStats", "run_analysis"),
    ".frontend.parser": (
        "ParseError",
        "load_program",
        "load_program_from_file",
        "load_project",
        "load_project_files",
    ),
    ".ir.program": ("Program", "Procedure"),
    ".memory.locset": ("LocationSet",),
})
__all__ += ["analyze_source", "analyze_file"]


def analyze_source(
    source: str,
    filename: str = "<input>",
    options: Optional[AnalyzerOptions] = None,
) -> AnalysisResult:
    """Parse, lower and analyze a C program given as a string."""
    from .analysis.results import run_analysis
    from .frontend.parser import load_program

    program = load_program(source, filename)
    return run_analysis(program, options)


def analyze_file(
    path: str, options: Optional[AnalyzerOptions] = None
) -> AnalysisResult:
    """Parse, lower and analyze a C file on disk."""
    from .analysis.results import run_analysis
    from .frontend.parser import load_program_from_file

    program = load_program_from_file(path)
    return run_analysis(program, options)
