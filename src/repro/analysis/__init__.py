"""The paper's contribution: the context-sensitive analysis itself."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("Analyzer", "AnalyzerOptions", "analyze"),
    ".guards": (
        "AnalysisBudget",
        "DegradationRecord",
        "DegradationReport",
        "FrontendFault",
        "GuardTripped",
    ),
    ".ptf": ("PTF", "ParamMap", "InitialEntry"),
    ".results": ("AnalysisResult", "PTFStats", "run_analysis"),
})
