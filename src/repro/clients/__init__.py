"""Clients of the pointer analysis (§7): loop parallelization + machine model."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".parallel": (
        "Parallelizer",
        "LoopInfo",
        "ArrayAccess",
        "ProcedureLoops",
        "AliasOracle",
    ),
    ".machine": ("MachineModel", "ProgramTiming", "LoopTiming"),
    ".deadstore": (
        "DeadStoreAnalysis",
        "StoreInfo",
        "find_dead_stores",
        "find_redundant_loads",
    ),
})
