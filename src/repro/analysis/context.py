"""Calling contexts (frames) and lazy extended-parameter management.

The analysis keeps a stack of frames to track the current calling contexts
(§2.3).  Each frame pairs a procedure's PTF with the parameter mapping for
the call being analyzed.  Frames implement the lazy machinery of §3.2:

* ``lookup_value`` — read a pointer's value at a node; if the search
  reaches the procedure entry for an input location (extended parameter or
  formal), the *initial* value is computed on demand by asking the calling
  context — recursively, up the call stack, until values are known;
* ``to_callee_targets`` — convert caller-space values into the PTF name
  space: reuse a parameter whose values match (possibly at a constant
  offset — negative offsets handle a field pointer seen before its
  enclosing struct, Figure 7), create a fresh parameter when nothing
  aliases, or *subsume* aliased parameters into a new one (Figure 6);
* global variables resolve to extended parameters so PTFs stay reusable
  across contexts (§2.2); direct and through-pointer references to the same
  global share one parameter, which models their alias.

The :class:`RootFrame` terminates the recursion: it feeds static
initializer values for globals and a synthetic ``argv`` for ``main``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..frontend.ctypes_model import WORD_SIZE
from ..ir.expr import GlobalSymbol, LocalSymbol, ProcSymbol, StringSymbol, Symbol
from ..ir.nodes import CallNode, Node
from ..ir.program import Procedure, Program
from ..memory.blocks import (
    ExtendedParameter,
    GlobalBlock,
    HeapBlock,
    LocalBlock,
    MemoryBlock,
    ProcedureBlock,
    ReturnBlock,
    StringBlock,
)
from ..memory.locset import LocationSet
from ..memory.pointsto import normalize_loc, normalize_values
from .ptf import ParamMap, PTF

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Analyzer

__all__ = ["Frame", "RootFrame"]

EMPTY: frozenset = frozenset()


class RootFrame:
    """The context that calls ``main``: static initializers + argv."""

    def __init__(self, analyzer: "Analyzer") -> None:
        self.analyzer = analyzer
        self.program: Program = analyzer.program
        self.proc = None
        self.ptf = None
        self.call_node: Optional[Node] = None
        # synthetic storage for the argv vector and the strings it holds
        self.argv_array = HeapBlock("<argv[]>")
        self.argv_strings = HeapBlock("<argv-strings>")
        self.argv_array.register_pointer_location(0, WORD_SIZE)
        # envp gets its own synthetic vector: argv and envp never alias in
        # a real process, so sharing argv's block would manufacture a
        # spurious alias between main's second and third formals
        self.envp_array = HeapBlock("<envp[]>")
        self.envp_strings = HeapBlock("<envp-strings>")
        self.envp_array.register_pointer_location(0, WORD_SIZE)
        self._static_values: Optional[dict] = None

    # -- the caller-side API used by callee frames -----------------------

    def lookup_value(self, loc: LocationSet, node: Optional[Node], size: int) -> frozenset:
        base = loc.base
        if base is self.argv_array:
            return frozenset({LocationSet(self.argv_strings, 0, 1)})
        if base is self.envp_array:
            return frozenset({LocationSet(self.envp_strings, 0, 1)})
        if isinstance(base, GlobalBlock):
            return self._static_value(loc)
        if isinstance(base, StringBlock):
            return EMPTY  # strings hold characters, not pointers
        return EMPTY

    def resolve_symbol_block(self, symbol: Symbol) -> MemoryBlock:
        if isinstance(symbol, GlobalSymbol):
            return self.program.add_global(symbol)
        if isinstance(symbol, ProcSymbol):
            return self.program.proc_block(symbol.name)
        if isinstance(symbol, StringSymbol):
            return self.program.string_block(symbol)
        raise TypeError(f"root frame cannot resolve {symbol!r}")

    def resolve_fnptr_targets(self, values: frozenset) -> set[str]:
        out: set[str] = set()
        for loc in values:
            if isinstance(loc.base, ProcedureBlock):
                out.add(loc.base.proc_name)
        return out

    def caller_block_for_global(self, name: str) -> MemoryBlock:
        symbol = self.program.globals.get(name)
        if symbol is None:
            from ..ir.expr import GlobalSymbol as _GS

            symbol = _GS(name)
        return self.program.add_global(symbol)

    # -- static initializers -------------------------------------------------

    def _static_value(self, loc: LocationSet) -> frozenset:
        if self._static_values is None:
            self._static_values = self._evaluate_static_inits()
        result: set[LocationSet] = set()
        for key, vals in self._static_values.items():
            if key.base is loc.base and loc.overlaps(key, width=max(1, WORD_SIZE)):
                result |= vals
        return frozenset(result)

    def _evaluate_static_inits(self) -> dict[LocationSet, frozenset]:
        """Evaluate GlobalInit records in the root name space."""
        from ..ir.expr import AddressTerm, ContentsTerm, SymbolLoc

        out: dict[LocationSet, frozenset] = {}
        for init in self.program.global_inits:
            dst = init.dst
            if not isinstance(dst, SymbolLoc):
                continue
            dst_block = self.resolve_symbol_block(dst.symbol)
            dst_loc = LocationSet(dst_block, dst.offset, dst.stride)
            values: set[LocationSet] = set()
            for term in init.src.terms:
                if isinstance(term, AddressTerm) and isinstance(term.loc, SymbolLoc):
                    block = self.resolve_symbol_block(term.loc.symbol)
                    values.add(LocationSet(block, term.loc.offset, term.loc.stride))
            if values:
                old = out.get(dst_loc, EMPTY)
                out[dst_loc] = old | frozenset(values)
        return out


class Frame:
    """One activation: a procedure analyzed under one PTF and mapping."""

    def __init__(
        self,
        analyzer: "Analyzer",
        proc: Procedure,
        ptf: PTF,
        param_map: ParamMap,
        call_node: Optional[CallNode],
        caller: "Frame | RootFrame",
    ) -> None:
        self.analyzer = analyzer
        self.program: Program = analyzer.program
        self.proc = proc
        self.ptf = ptf
        self.param_map = param_map
        self.call_node = call_node
        self.caller = caller
        self.changed = False
        #: nodes whose evaluation was deferred (recursion, unknown dests)
        self.deferred: set[int] = set()
        #: reads of an input whose parameter this context leaves unbound
        self.unbound_inputs = 0

    # ------------------------------------------------------------------
    # symbol resolution
    # ------------------------------------------------------------------

    def resolve_symbol_block(self, symbol: Symbol) -> MemoryBlock:
        if isinstance(symbol, LocalSymbol):
            return self.proc.local_block(symbol)
        if isinstance(symbol, ProcSymbol):
            return self.program.proc_block(symbol.name)
        if isinstance(symbol, StringSymbol):
            return self.program.string_block(symbol)
        if isinstance(symbol, GlobalSymbol):
            return self.global_param(symbol)
        raise TypeError(f"cannot resolve symbol {symbol!r}")

    def global_param(self, symbol: GlobalSymbol) -> ExtendedParameter:
        """The extended parameter representing a directly referenced global."""
        cached = self.ptf.global_params.get(symbol.name)
        if cached is not None:
            return cached.representative()
        # the caller-space location of the global
        caller_block = self.caller.resolve_symbol_block(symbol)
        caller_loc = LocationSet(caller_block, 0, 0)
        # reuse a parameter already bound exactly to this location
        for param, values in self.param_map.param_values.items():
            if values == frozenset({caller_loc}) and param.subsumed_by is None:
                self.ptf.global_params[symbol.name] = param
                return param
        param = self.ptf.new_param(symbol.name, global_block=self._root_global(symbol))
        self.param_map.bind_param(param, frozenset({caller_loc}))
        self.ptf.global_params[symbol.name] = param
        return param

    def _root_global(self, symbol: GlobalSymbol) -> GlobalBlock:
        return self.program.add_global(symbol)

    def caller_block_for_global(self, name: str) -> MemoryBlock:
        """This frame's own block for global ``name`` (used when a callee
        PTF's global parameter is bound structurally during matching)."""
        symbol = self.program.globals.get(name)
        if symbol is None:
            symbol = GlobalSymbol(name)
            self.program.add_global(symbol)
        return self.resolve_symbol_block(symbol)

    # ------------------------------------------------------------------
    # values: lookups with lazy initial fetch
    # ------------------------------------------------------------------

    def lookup_value(self, loc: LocationSet, node: Optional[Node], size: int) -> frozenset:
        """The values of ``loc`` visible just before ``node``.

        Used both intraprocedurally (dereferences) and by callees fetching
        initial values at our call node.
        """
        loc = normalize_loc(loc)
        self.ensure_initial(loc, size)
        if node is None:
            node = self.proc.exit
        return self.ptf.state.lookup_overlapping(loc, node, width=max(size, 1))

    def assign(
        self,
        loc: LocationSet,
        values,
        node: Node,
        strong: bool,
        size: int = WORD_SIZE,
    ) -> bool:
        """Record an assignment, first materializing the destination's
        initial value when it is a procedure input.

        Without this, a *conditional* update of an input location would
        summarize as only the new value: the fall-through path's "value at
        entry" must exist in the state for merges to see it.
        """
        self.ensure_initial(loc, size)
        return self.ptf.state.assign(loc, values, node, strong, size=size)

    def ensure_initial(self, loc: LocationSet, size: int) -> None:
        """Record the initial value of an input location if needed (§3.2)."""
        base = loc.base
        if isinstance(base, ExtendedParameter):
            if base.subsumed_by is not None:
                loc = normalize_loc(loc)
                base = loc.base
            if self.ptf.state.get_initial(loc) is not None:
                return
            caller_locs = self.param_map.caller_locations(loc)
            if caller_locs is None:
                # unbound parameter: an input that only exists in other
                # contexts of a recursive PTF; nothing to fetch here.  The
                # answer depends on this frame's bindings, not on the
                # state, so a call dispatch that saw it is not memoized
                self.unbound_inputs += 1
                return
            caller_vals = self._caller_values(caller_locs, size)
            targets = self.to_callee_targets(caller_vals, loc)
            prov = self.analyzer.provenance
            if prov is not None:
                # the caller-space locations are the chain's next hops
                prov.set_initial_context(
                    sources=tuple(
                        sorted(str(normalize_loc(cl)) for cl in caller_locs)
                    ),
                    detail="input fetched from calling context",
                )
            tr = self.analyzer.trace
            if tr is not None:
                tr.instant(
                    "initial_fetch",
                    "interproc",
                    proc=self.proc.name,
                    ptf=self.ptf.uid,
                    loc=str(loc),
                    targets=len(targets),
                )
            self.ptf.add_initial_entry(loc, targets)
            self.ptf.snapshot_pointer_versions(self.param_map)
            self.analyzer.metrics.initial_fetches += 1
            self.changed = True
            return
        if isinstance(base, LocalBlock):
            symbol = self.proc.locals.get(base.name.split("::")[-1])
            if symbol is None or not symbol.is_formal:
                return
            if self.ptf.state.get_initial(loc) is not None:
                return
            caller_vals = self._actual_values(symbol.name, loc)
            targets = self.to_callee_targets(caller_vals, loc)
            prov = self.analyzer.provenance
            if prov is not None:
                prov.set_initial_context(
                    detail=f"actual argument bound to formal {symbol.name}",
                )
            tr = self.analyzer.trace
            if tr is not None:
                tr.instant(
                    "initial_fetch",
                    "interproc",
                    proc=self.proc.name,
                    ptf=self.ptf.uid,
                    loc=str(loc),
                    targets=len(targets),
                )
            self.ptf.add_initial_entry(loc, targets)
            self.analyzer.metrics.initial_fetches += 1
            self.changed = True

    def _caller_values(self, caller_locs: frozenset, size: int) -> frozenset:
        values: set[LocationSet] = set()
        for cl in caller_locs:
            values |= self.caller.lookup_value(cl, self.call_node, size)
        return frozenset(values)

    def _actual_values(self, formal_name: str, loc: LocationSet) -> frozenset:
        """Actual-argument values overlapping ``loc`` within the formal."""
        entries = self.param_map.actuals.get(formal_name)
        if not entries:
            return EMPTY
        values: set[LocationSet] = set()
        for offset, stride, vals in entries:
            probe = LocationSet(loc.base, offset, stride)
            if probe.overlaps(loc, width=1, other_width=max(1, WORD_SIZE)):
                values |= vals
        return frozenset(values)

    # ------------------------------------------------------------------
    # caller values -> callee name space (§3.2)
    # ------------------------------------------------------------------

    def to_callee_targets(self, caller_vals: frozenset, source: LocationSet) -> frozenset:
        """Represent caller-space values as location sets over one extended
        parameter, creating/reusing/subsuming parameters as needed."""
        if not caller_vals:
            return EMPTY
        caller_vals = frozenset(caller_vals)
        # locals of the *callee* never appear in caller values; procedure
        # blocks (function pointers) pass through unchanged — they are
        # global code addresses, not storage
        storage_vals = frozenset(
            v for v in caller_vals if not isinstance(v.base, ProcedureBlock)
        )
        passthrough = frozenset(
            v for v in caller_vals if isinstance(v.base, ProcedureBlock)
        )
        # heap blocks allocated by *this* procedure or its children keep
        # their identity; blocks passed in from the caller become parameters
        # (§3) — we approximate "from the caller" as "any heap value coming
        # through an initial fetch", which this is.
        if not storage_vals:
            return passthrough

        candidates = self._aliased_params(storage_vals)
        if not candidates:
            param = self.ptf.new_param(self._hint(source))
            self.param_map.bind_param(param, storage_vals)
            self.ptf.note_param_source(param, source)
            self._update_uniqueness(param)
            return passthrough | frozenset({LocationSet(param, 0, 0)})

        if len(candidates) == 1:
            param = candidates[0]
            bound = self.param_map.lookup_param(param) or EMPTY
            delta = self._constant_shift(bound, storage_vals)
            if delta is not None and not self.analyzer.options.subsumption and delta != 0:
                # ablation: offset-based reuse disabled — merge instead
                delta = None
            if delta is not None:
                self.ptf.note_param_source(param, source)
                self._update_uniqueness(param)
                target = LocationSet(param, delta, 0)
                if any(v.stride for v in storage_vals):
                    from math import gcd

                    s = 0
                    for v in storage_vals:
                        s = gcd(s, v.stride)
                    target = LocationSet(param, delta, s or 1)
                return passthrough | frozenset({target})
            if storage_vals <= bound:
                # a subset of what the parameter stands for: reuse directly
                self.ptf.note_param_source(param, source)
                self._update_uniqueness(param)
                return passthrough | frozenset({LocationSet(param, 0, 0)})

        # aliased with one-or-more parameters but not cleanly: subsume
        param = self._subsume(candidates, storage_vals, source)
        return passthrough | frozenset({LocationSet(param, 0, 0)})

    def _aliased_params(self, values: frozenset) -> list[ExtendedParameter]:
        """Parameters whose caller-space values alias ``values``.

        Aliasing is at *object* granularity: a pointer into the same block
        as an existing parameter relates to that parameter even at another
        offset — that is exactly the field-before-struct case of Figure 7,
        resolved by an offset (possibly negative) from the parameter.
        """
        out: list[ExtendedParameter] = []
        for param, bound in self.param_map.param_values.items():
            if param.subsumed_by is not None:
                continue
            if any(v.base is b.base for v in values for b in bound):
                out.append(param)
        out.sort(key=lambda p: p.order)
        return out

    @staticmethod
    def _constant_shift(bound: frozenset, values: frozenset) -> Optional[int]:
        """If ``values`` is exactly ``bound`` shifted by a constant byte
        offset, return that offset (0 when identical)."""
        if len(bound) != len(values):
            return None
        by_base_b = sorted(bound, key=lambda l: (l.base.uid, l.offset, l.stride))
        by_base_v = sorted(values, key=lambda l: (l.base.uid, l.offset, l.stride))
        delta: Optional[int] = None
        for b, v in zip(by_base_b, by_base_v):
            if b.base is not v.base or b.stride != v.stride:
                return None
            if b.stride:
                if b.offset != v.offset:
                    return None
                d = 0
            else:
                d = v.offset - b.offset
            if delta is None:
                delta = d
            elif delta != d and (b.stride == 0):
                return None
        return delta if delta is not None else 0

    def _subsume(
        self,
        old_params: list[ExtendedParameter],
        values: frozenset,
        source: LocationSet,
    ) -> ExtendedParameter:
        """Create a parameter subsuming ``old_params`` (Figure 6)."""
        union: set[LocationSet] = set(values)
        for p in old_params:
            union |= self.param_map.lookup_param(p) or EMPTY
        param = self.ptf.new_param(self._hint(source))
        self.param_map.bind_param(param, frozenset(union))
        for p in old_params:
            p.subsumed_by = param
            # inherit uniqueness sources
            for src in self.ptf.param_sources.get(p, ()):  # type: ignore[arg-type]
                self.ptf.note_param_source(param, src)
            if p.is_function_pointer:
                param.is_function_pointer = True
            # the subsumed parameter's pointer locations carry over
            for off_stride in p.pointer_locations:
                param.register_pointer_location(*off_stride)
            # keep the global cache pointing at representatives
            for gname, gparam in list(self.ptf.global_params.items()):
                if gparam is p:
                    self.ptf.global_params[gname] = param
        self.ptf.note_param_source(param, source)
        self._update_uniqueness(param)
        self.ptf.state.mark_changed()
        self.changed = True
        return param

    def _update_uniqueness(self, param: ExtendedParameter) -> None:
        """§4.1: a parameter stops being unique once more than one location
        points at it and its actual values are not a single unique location."""
        sources = self.ptf.param_sources.get(param, set())
        if len(sources) <= 1:
            return
        bound = self.param_map.lookup_param(param) or EMPTY
        if len(bound) == 1:
            only = next(iter(bound))
            if only.is_unique:
                return
        if param.known_unique:
            param.known_unique = False
            # the downgrade changes strong-update/fence applicability for
            # every location based on this parameter: force reevaluation and
            # drop the state's memoized lookups
            self.ptf.state.mark_changed()

    @staticmethod
    def _hint(source: LocationSet) -> str:
        name = source.base.name
        for sep in ("::", "@"):
            if sep in name:
                name = name.split(sep)[-1]
        return name

    # ------------------------------------------------------------------
    # function pointers (§5.1)
    # ------------------------------------------------------------------

    def resolve_fnptr_targets(self, values: frozenset) -> set[str]:
        """Resolve pointer values used as call targets to procedure names,
        walking parameter mappings up the call graph as needed."""
        out: set[str] = set()
        for loc in values:
            base = loc.base
            if isinstance(base, ProcedureBlock):
                out.add(base.proc_name)
            elif isinstance(base, ExtendedParameter):
                # the parameter *is* the function passed in: the values it
                # represents in the caller are the candidate code addresses
                rep = base.representative()
                rep.is_function_pointer = True
                caller_locs = self.param_map.lookup_param(rep) or EMPTY
                resolved = self.caller.resolve_fnptr_targets(frozenset(caller_locs))
                old = self.ptf.fnptr_domain.get(rep, frozenset())
                new = old | frozenset(resolved)
                if new != old:
                    self.ptf.fnptr_domain[rep] = new
                    self.changed = True
                out |= resolved
        return out

    def __repr__(self) -> str:
        return f"<Frame {self.proc.name} ptf#{self.ptf.uid}>"
