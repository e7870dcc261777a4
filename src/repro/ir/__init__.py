"""The analysis IR: points-to-form expressions, flow-graph nodes,
dominators, and program containers."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".expr": (
        "ValueExpr",
        "LocExpr",
        "SymbolLoc",
        "DerefLoc",
        "AddressTerm",
        "ContentsTerm",
        "AdjustTerm",
        "UnknownTerm",
        "Symbol",
        "LocalSymbol",
        "GlobalSymbol",
        "ProcSymbol",
        "StringSymbol",
    ),
    ".nodes": (
        "Node",
        "EntryNode",
        "ExitNode",
        "AssignNode",
        "CallNode",
        "MeetNode",
        "BranchNode",
    ),
    ".program": ("Program", "Procedure", "GlobalInit"),
    ".dominators": (
        "compute_rpo",
        "compute_dominators",
        "finalize_graph",
        "iterated_frontier",
    ),
})
