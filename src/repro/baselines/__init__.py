"""Baseline analyses the paper compares against (§6–7)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".andersen": ("AndersenAnalysis", "andersen_analyze"),
    ".steensgaard": ("SteensgaardAnalysis", "steensgaard_analyze"),
    ".invocation": (
        "InvocationGraph",
        "build_invocation_graph",
        "syntactic_call_graph",
    ),
})
