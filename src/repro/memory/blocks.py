"""Memory blocks: the paper's low-level model of storage (§3).

Memory is divided into *blocks* of contiguous storage whose positions
relative to one another are undefined.  A block is one of:

* a **local variable** of some procedure (always a unique block — it
  corresponds directly to one real memory location),
* the special **return-value** local of a procedure,
* a **heap block**, grouping all storage allocated at one static allocation
  site (never unique: one name stands for many runtime objects),
* an **extended parameter**, the symbolic name for the locations reached
  through an input pointer at procedure entry — including global variables,
  which the paper treats as extended parameters so PTFs stay reusable across
  contexts that bind different globals (§2.2, §3.2).

Uniqueness drives *strong updates* (§4.1): a destination location set can be
strongly updated only when its base block is unique.  An extended parameter
representing the initial value of a unique pointer is unique *within the
scope of the procedure*, even if the pointer has many possible values in the
calling context — the pointer holds only one of them at any moment.  The
parameter manager (:mod:`repro.analysis.params`) clears
:attr:`ExtendedParameter.known_unique` when that reasoning stops applying.

Every block also carries the registry of location sets within it that may
hold pointers (§3.3): without high-level types, the analysis would otherwise
have to treat every assignment as a potential pointer assignment, which is
safe but slow.  The registry only ever grows; missing entries are an
efficiency concern, not a soundness one, and PTFs are re-extended when their
inputs gain new pointer locations (§5.2).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..frontend.ctypes_model import CType

__all__ = [
    "MemoryBlock",
    "LocalBlock",
    "ReturnBlock",
    "HeapBlock",
    "GlobalBlock",
    "ExtendedParameter",
    "StringBlock",
    "ProcedureBlock",
    "all_pointer_locations",
    "subsumption_epoch",
    "reset_uid_counter",
    "blocks_created",
]

_block_counter = itertools.count()
#: monotone count of blocks ever constructed in this process; survives
#: :func:`reset_uid_counter` so per-run deltas (see
#: ``Analyzer.memory_profile``) stay meaningful across resets
_blocks_created = 0

#: monotone count of parameter subsumptions across the process; sparse
#: states compare it against a snapshot to renormalize their def keys and
#: drop memoized lookups lazily (they cannot observe the assignment to
#: :attr:`ExtendedParameter.subsumed_by` directly)
_subsumption_epoch = 0


def subsumption_epoch() -> int:
    """The current value of the global subsumption counter."""
    return _subsumption_epoch


def blocks_created() -> int:
    """Monotone count of :class:`MemoryBlock` constructions this process.

    A live-memory gauge for the snapshot layer: the difference between two
    readings bounds how many blocks (and with them per-block locset intern
    tables) one analysis allocated.  Unlike the uid counter this is never
    reset, so deltas across :func:`reset_uid_counter` remain valid.
    """
    return _blocks_created


def reset_uid_counter() -> None:
    """Restart block uid numbering from zero (test/benchmark isolation).

    Block uids feed :class:`~repro.memory.locset.LocationSet` hashes, so
    set iteration order — and with it e.g. the order extended parameters
    are created in — depends on how many blocks earlier analyses in the
    same process allocated.  Resetting before each run makes independent
    analyses of the same program reproduce byte-identical output, which
    the cached-vs-uncached equivalence checks rely on.  Never call this
    between analyses that share blocks.
    """
    global _block_counter
    _block_counter = itertools.count()


class MemoryBlock:
    """A contiguous block of memory with undefined position."""

    #: subclasses override; used in display names
    kind = "block"

    #: class-level default so hot paths can test ``base.subsumed_by is None``
    #: without an ``isinstance`` check; only :class:`ExtendedParameter`
    #: instances ever carry a non-None value (§3.2)
    subsumed_by = None

    def __init__(self, name: str, size: Optional[int] = None) -> None:
        global _blocks_created
        _blocks_created += 1
        self.name = name
        self.size = size
        self.uid = next(_block_counter)
        # (offset, stride) positions within this block that may hold pointers
        self.pointer_locations: set[tuple[int, int]] = set()
        # monotone version bump on each new pointer location; PTFs snapshot
        # this to detect that their inputs gained pointer locations (§5.2)
        self.pointer_version = 0
        # canonical location sets based on this block, keyed (offset,
        # stride); filled by :class:`repro.memory.locset.LocationSet`
        self._locset_interns: dict = {}

    def __getstate__(self) -> dict:
        # the canonical location-set table is not pickled: its sets would
        # be rebuilt before this block's uid is; copies rebuild it on demand
        state = self.__dict__.copy()
        del state["_locset_interns"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._locset_interns = {}

    @property
    def is_unique(self) -> bool:
        """Whether this block names exactly one runtime location."""
        raise NotImplementedError

    def register_pointer_location(self, offset: int, stride: int) -> bool:
        """Record that ``(offset, stride)`` within this block may hold a pointer.

        Returns True when this is a new location (the registry grew).
        """
        key = (offset, stride)
        if key in self.pointer_locations:
            return False
        self.pointer_locations.add(key)
        self.pointer_version += 1
        return True

    def __repr__(self) -> str:
        return f"<{self.kind} {self.name}>"

    def __str__(self) -> str:
        return self.name


class LocalBlock(MemoryBlock):
    """A local variable (or formal parameter) of a procedure."""

    kind = "local"

    def __init__(
        self,
        name: str,
        proc_name: str,
        ctype: Optional["CType"] = None,
        size: Optional[int] = None,
    ) -> None:
        super().__init__(name, size)
        self.proc_name = proc_name
        self.ctype = ctype

    @property
    def is_unique(self) -> bool:
        # "local variables correspond directly to real memory locations so
        # they are always unique blocks" (§4.1)
        return True


class ReturnBlock(MemoryBlock):
    """The special local variable holding a procedure's return value (§3)."""

    kind = "retval"

    def __init__(self, proc_name: str) -> None:
        super().__init__(f"<return:{proc_name}>")
        self.proc_name = proc_name

    @property
    def is_unique(self) -> bool:
        return True


class HeapBlock(MemoryBlock):
    """All storage allocated at one static allocation site (§3).

    The paper limits allocation contexts to static allocation sites, which
    "is sufficient to provide good precision for the programs we have
    analyzed so far"; we follow that choice by default.  With
    ``AnalyzerOptions.heap_context_depth > 0`` the name additionally carries
    up to k call-chain edges (the Choi et al. scheme the paper discusses),
    and summaries re-key the block per calling context when applied.
    """

    kind = "heap"

    def __init__(self, site: str, chain: tuple = ()) -> None:
        display = site + ("<-" + "<-".join(chain) if chain else "")
        super().__init__(f"heap@{display}")
        self.site = site
        self.chain = tuple(chain)

    @property
    def is_unique(self) -> bool:
        # a heap block represents *all* storage allocated in its context, so
        # it is never unique (§4.1)
        return False


class StringBlock(MemoryBlock):
    """Storage for a string literal.

    String literals are shared, read-only arrays of char; like heap blocks
    they may name several runtime objects (a literal in a loop or a merged
    constant pool), so they are not unique.
    """

    kind = "string"

    def __init__(self, text: str, site: str) -> None:
        display = text if len(text) <= 12 else text[:9] + "..."
        super().__init__(f'"{display}"@{site}', size=len(text) + 1)
        self.text = text
        self.site = site

    @property
    def is_unique(self) -> bool:
        return False


class ProcedureBlock(MemoryBlock):
    """The code block of a procedure; `&f` points at one of these.

    Function pointers are ordinary pointer values whose targets are
    procedure blocks; call-through-pointer resolution (§5.1) reads them out
    of the points-to function.
    """

    kind = "proc"

    def __init__(self, proc_name: str) -> None:
        super().__init__(proc_name)
        self.proc_name = proc_name

    @property
    def is_unique(self) -> bool:
        return True


class GlobalBlock(MemoryBlock):
    """The actual storage of a file-scope variable.

    Inside a procedure's name space globals are *represented by* extended
    parameters (§2.2); the global block itself is the canonical identity
    those parameters map to, and the storage the root context (``main``)
    binds them to.
    """

    kind = "global"

    def __init__(
        self,
        name: str,
        ctype: Optional["CType"] = None,
        size: Optional[int] = None,
    ) -> None:
        super().__init__(name, size)
        self.ctype = ctype

    @property
    def is_unique(self) -> bool:
        return True


class ExtendedParameter(MemoryBlock):
    """A symbolic name for locations reached through a procedure's inputs.

    One extended parameter represents *at most one object* (§2.2): when
    initial values alias several existing parameters, the manager subsumes
    them into a fresh parameter (§3.2, Figure 6).

    ``global_block`` is set when the parameter stands for a specific global
    variable; directly referenced globals and globals reached through
    pointers then share one parameter, which models the alias between the
    two access paths (§2.2).
    """

    kind = "xparam"

    def __init__(
        self,
        name: str,
        proc_name: str,
        global_block: Optional[MemoryBlock] = None,
    ) -> None:
        super().__init__(name)
        self.proc_name = proc_name
        self.global_block = global_block
        #: cleared when more than one location points at this parameter and
        #: its actual values are not a single unique location (§4.1)
        self.known_unique = True
        #: set when the parameter is used as a call target; its values then
        #: become part of the PTF's input domain (§5.1)
        self.is_function_pointer = False
        #: parameter that subsumed this one, if any (§3.2, Figure 6);
        #: stored behind the ``subsumed_by`` property so assignments bump
        #: the global subsumption epoch
        self._subsumed_by: Optional["ExtendedParameter"] = None
        #: creation order within the PTF, used when matching PTFs (§5.2)
        self.order: int = -1

    @property
    def subsumed_by(self) -> Optional["ExtendedParameter"]:
        return self._subsumed_by

    @subsumed_by.setter
    def subsumed_by(self, value: Optional["ExtendedParameter"]) -> None:
        self._subsumed_by = value
        if value is not None:
            global _subsumption_epoch
            _subsumption_epoch += 1
            # the subsumed parameter's registered pointer locations carry
            # over to the representative: renormalized def keys must stay
            # visible to registry-driven overlap lookups (§3.3).  The
            # parameter manager migrates these itself, so this is a no-op
            # there; it makes direct assignments equally safe.
            for off_stride in self.pointer_locations:
                value.register_pointer_location(*off_stride)

    @property
    def is_unique(self) -> bool:
        return self.known_unique

    def representative(self) -> "ExtendedParameter":
        """Follow subsumption links to the current representative."""
        param = self
        while param.subsumed_by is not None:
            param = param.subsumed_by
        return param


def all_pointer_locations(blocks: Iterable[MemoryBlock]) -> set[tuple[int, int]]:
    """Union of the registered pointer locations of ``blocks``."""
    out: set[tuple[int, int]] = set()
    for block in blocks:
        out |= block.pointer_locations
    return out
