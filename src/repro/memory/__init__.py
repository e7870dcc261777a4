"""The paper's low-level memory model (§3): blocks, location sets, and the
flow-sensitive points-to state representations."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".blocks": (
        "MemoryBlock",
        "LocalBlock",
        "ReturnBlock",
        "HeapBlock",
        "GlobalBlock",
        "ExtendedParameter",
        "StringBlock",
        "ProcedureBlock",
    ),
    ".locset": ("LocationSet", "locations_overlap", "ranges_overlap_mod"),
    ".pointsto": ("SparseState", "normalize_loc", "normalize_values"),
})
