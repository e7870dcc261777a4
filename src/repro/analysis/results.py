"""Query interface over a completed analysis.

Wraps the :class:`~repro.analysis.engine.Analyzer` with the questions
clients ask:

* points-to sets of named variables at procedure exit (per PTF or merged);
* may-alias queries between two pointer expressions;
* the resolved call graph (function-pointer calls included);
* PTF statistics — the Table 2 columns (#procedures, analysis seconds,
  average PTFs per procedure);
* parameter-alias facts for the parallelizer client ("can these two formals
  alias in any context?" — §7's use of the analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..frontend.ctypes_model import WORD_SIZE
from ..ir.expr import GlobalSymbol, LocalSymbol
from ..ir.nodes import CallNode
from ..ir.program import Procedure, Program
from ..memory.blocks import ExtendedParameter, MemoryBlock, ProcedureBlock
from ..memory.locset import LocationSet
from ..memory.pointsto import normalize_loc
from .engine import Analyzer, AnalyzerOptions, analyze
from .guards import DegradationReport
from .ptf import PTF, ParamMap

__all__ = ["AnalysisResult", "run_analysis", "PTFStats"]

#: libc functions with no caller-visible pointer side effects
_PURE_LIBC = frozenset({
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh",
    "tanh", "exp", "log", "log10", "pow", "sqrt", "ceil", "floor", "fabs",
    "fmod", "abs", "labs", "ldexp", "strlen", "strcmp", "strncmp", "memcmp",
    "isalpha", "isdigit", "isalnum", "isspace", "tolower", "toupper",
})


@dataclass
class PTFStats:
    """The per-program statistics reported in Table 2."""

    procedures: int
    analysis_seconds: float
    avg_ptfs: float
    total_ptfs: int
    max_ptfs: int
    source_lines: int

    def row(self) -> tuple:
        return (
            self.source_lines,
            self.procedures,
            round(self.analysis_seconds, 3),
            round(self.avg_ptfs, 2),
        )


class AnalysisResult:
    """User-facing facade over a finished analysis."""

    def __init__(self, analyzer: Analyzer) -> None:
        self.analyzer = analyzer
        self.program: Program = analyzer.program
        self._contexts: Optional[dict[int, list[ParamMap]]] = None

    @property
    def degradation(self) -> "DegradationReport":
        """The run's structured degradation report (guards.py): which
        procedures were quarantined, why, and the budget consumed.  A
        fully precise run has ``degradation.ok == True``."""
        return self.analyzer.degradation

    # ------------------------------------------------------------------
    # points-to queries
    # ------------------------------------------------------------------

    def ptfs_of(self, proc_name: str) -> list[PTF]:
        return list(self.analyzer.ptfs.get(proc_name, ()))

    def points_to_names(self, proc_name: str, var: str) -> set[str]:
        """Names of blocks the pointer variable ``var`` may target at the
        exit of ``proc_name``, merged over every PTF and context."""
        out: set[str] = set()
        for loc in self.points_to(proc_name, var):
            out.add(self.display_name(loc.base))
        return out

    def points_to(self, proc_name: str, var: str) -> set[LocationSet]:
        """Location sets ``var`` may point to at procedure exit, with
        extended parameters translated to caller-space names where bound."""
        proc = self.program.procedures[proc_name]
        results: set[LocationSet] = set()
        for ptf in self.ptfs_of(proc_name):
            loc = self._var_loc(proc, ptf, var)
            if loc is None:
                continue
            vals = ptf.state.lookup_overlapping(loc, proc.exit, width=WORD_SIZE)
            if not vals:
                initial = ptf.state.get_initial(normalize_loc(loc))
                if initial:
                    vals = initial
            results |= self._concretize(ptf, vals)
        return results

    def _var_loc(
        self, proc: Procedure, ptf: PTF, var: str
    ) -> Optional[LocationSet]:
        symbol = proc.locals.get(var)
        if symbol is not None:
            return LocationSet(proc.local_block(symbol), 0, 0)
        if var in self.program.globals:
            param = ptf.global_params.get(var)
            if param is not None:
                return LocationSet(param.representative(), 0, 0)
            return LocationSet(self.program.global_block(var), 0, 0)
        return None

    def _concretize(self, ptf: PTF, values: Iterable[LocationSet]) -> set[LocationSet]:
        """Translate extended parameters to what they represent: the union
        of their bindings over every call that applies the PTF
        (``Analyzer.context_maps``), so the answer does not depend on the
        order the fixpoint visited those calls in."""
        if self._contexts is None:
            self._contexts = self.analyzer.context_maps()
        maps = self._contexts.get(ptf.uid)
        if maps is None:
            maps = [ptf.current_map] if ptf.current_map is not None else []
        out: set[LocationSet] = set()
        for v in values:
            base = v.base
            if isinstance(base, ExtendedParameter):
                rep = base.representative()
                if rep.global_block is not None:
                    out.add(LocationSet(rep.global_block, v.offset, v.stride))
                    continue
                bound: set[LocationSet] = set()
                for map_ in maps:
                    bound |= map_.lookup_param(rep) or set()
                if bound:
                    for b in bound:
                        shifted = b.with_offset(v.offset) if b.stride == 0 else b
                        out.add(shifted)
                    continue
            out.add(v)
        return out

    # ------------------------------------------------------------------
    # provenance ("why does p point to x?")
    # ------------------------------------------------------------------

    def explain(
        self, proc_name: str, var: str, max_depth: int = 8
    ) -> list[dict]:
        """Derivation chains answering *why* ``var`` points to each of its
        targets at the exit of ``proc_name``.

        Requires the analysis to have run with
        ``AnalyzerOptions.provenance=True``; raises ``ValueError``
        otherwise.  One dict per (PTF, value) pair: the queried location,
        the value, its display name, and the chain of
        :class:`~repro.diagnostics.provenance.Derivation` records
        (root — the final write — first) as dicts with a ``depth`` key.
        """
        prov = self.analyzer.provenance
        if prov is None:
            raise ValueError(
                "analysis ran without provenance; "
                "set AnalyzerOptions.provenance=True"
            )
        proc = self.program.procedures.get(proc_name)
        if proc is None:
            raise KeyError(f"no procedure named {proc_name!r}")
        out: list[dict] = []
        for ptf in self.ptfs_of(proc_name):
            loc = self._var_loc(proc, ptf, var)
            if loc is None:
                continue
            loc = normalize_loc(loc)
            vals = ptf.state.lookup_overlapping(loc, proc.exit, width=WORD_SIZE)
            if not vals:
                initial = ptf.state.get_initial(loc)
                if initial:
                    vals = initial
            for v in sorted(vals, key=str):
                value = normalize_loc(v)
                chain = prov.explain(str(loc), str(value), max_depth=max_depth)
                out.append(
                    {
                        "proc": proc_name,
                        "var": var,
                        "ptf": ptf.uid,
                        "loc": str(loc),
                        "value": str(value),
                        "display": self.display_name(value.base),
                        "chain": [
                            dict(rec.as_dict(), depth=depth)
                            for depth, rec in chain
                        ],
                    }
                )
        return out

    def points_to_at(self, proc_name: str, var: str, line: int) -> set[str]:
        """Flow-sensitive query: the names ``var`` may point to just before
        the first statement at source ``line`` of ``proc_name``."""
        proc = self.program.procedures[proc_name]
        out: set[str] = set()
        for ptf in self.ptfs_of(proc_name):
            loc = self._var_loc(proc, ptf, var)
            if loc is None:
                continue
            for node in proc.nodes():
                if not node.coord:
                    continue
                if f":{line}:" in node.coord or node.coord.endswith(f":{line}"):
                    vals = ptf.state.lookup_overlapping(loc, node, width=WORD_SIZE)
                    for v in self._concretize(ptf, vals):
                        out.add(self.display_name(v.base))
                    break
        return out

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot of the analysis results."""
        stats = self.stats()
        procedures = {}
        for name in sorted(self.program.procedures):
            ptfs = self.ptfs_of(name)
            summaries = []
            for ptf in ptfs:
                summaries.append(
                    {
                        "initial": [
                            {
                                "source": str(e.source),
                                "targets": sorted(str(t) for t in e.targets),
                            }
                            for e in ptf.initial_entries
                        ],
                        "final": {
                            str(loc): sorted(str(v) for v in vals)
                            for loc, vals in sorted(
                                ptf.summary().items(),
                                key=lambda kv: str(kv[0]),
                            )
                        },
                    }
                )
            procedures[name] = {"ptfs": summaries}
        out = {
            "program": self.program.name,
            "stats": {
                "procedures": stats.procedures,
                "analysis_seconds": stats.analysis_seconds,
                "avg_ptfs": stats.avg_ptfs,
                "total_ptfs": stats.total_ptfs,
                "source_lines": stats.source_lines,
            },
            "call_graph": {
                caller: sorted(callees)
                for caller, callees in sorted(self.call_graph().items())
            },
            "procedures": procedures,
        }
        report = self.analyzer.degradation
        if not report.ok:
            # additive key, only for degraded runs: a default-config run's
            # snapshot stays byte-identical to the pre-guard engine
            out["degradation"] = report.as_dict()
        return out

    def display_name(self, block: MemoryBlock) -> str:
        name = block.name
        if isinstance(block, ExtendedParameter) and block.global_block is not None:
            return block.global_block.name
        return name.split("::")[-1]

    # ------------------------------------------------------------------
    # alias queries
    # ------------------------------------------------------------------

    def may_alias(self, proc_name: str, var_a: str, var_b: str) -> bool:
        """Whether ``*var_a`` and ``*var_b`` may overlap in any context."""
        for ptf in self.ptfs_of(proc_name):
            a = self._targets_in_ptf(ptf, var_a)
            b = self._targets_in_ptf(ptf, var_b)
            for la in a:
                for lb in b:
                    if la.base is lb.base and la.overlaps(lb, width=WORD_SIZE, other_width=WORD_SIZE):
                        return True
        return False

    def targets_by_ptf(self, proc_name: str, var: str) -> list[tuple[PTF, set[LocationSet]]]:
        """Per-PTF may-point-to targets of ``var`` — exactly the sets
        :meth:`may_alias` compares (exit lookup ∪ initial entries), in the
        PTF's own name space.  The query store persists these so alias
        verdicts answered from disk agree with the live analysis."""
        out: list[tuple[PTF, set[LocationSet]]] = []
        for ptf in self.ptfs_of(proc_name):
            targets = self._targets_in_ptf(ptf, var)
            if targets:
                out.append((ptf, targets))
        return out

    def queryable_vars(self, proc_name: str) -> list[str]:
        """Names a demand query may ask about in ``proc_name``: its locals
        (formals included) plus every program global."""
        proc = self.program.procedures[proc_name]
        return sorted(set(proc.locals) | set(self.program.globals))

    # ------------------------------------------------------------------
    # MOD/REF (derived from PTF side effects)
    # ------------------------------------------------------------------

    def mod_ref(self, proc_name: str) -> dict:
        """Caller-visible MOD/REF sets of ``proc_name``, derived from its
        PTFs.

        *MOD* — locations the procedure (or anything it calls — callee
        effects on caller-visible memory are already folded into the
        caller's final points-to function) may write: the summary keys at
        procedure exit, minus the procedure's own locals and return cell.

        *REF* — input locations it may read: the initial points-to entry
        sources (§3.2's lazily discovered input domain), minus the
        procedure's own locals (reading a formal's own cell is reading the
        argument *value*, not caller memory).

        Returns ``{"mod": {name: {"kind", "locs"}}, "ref": {...}}`` keyed
        by display name; ``kind`` is the memory-block kind (``global``,
        ``xparam`` = memory reachable from the caller's arguments,
        ``heap``, ``string``, ``proc``).
        """
        from ..memory.blocks import LocalBlock, ReturnBlock

        def account(bucket: dict, loc: LocationSet) -> None:
            base = loc.base
            if isinstance(base, (LocalBlock, ReturnBlock)):
                return
            if isinstance(base, ExtendedParameter):
                base = base.representative()
                if base.global_block is not None:
                    rec = bucket.setdefault(
                        base.global_block.name, {"kind": "global", "locs": set()}
                    )
                    rec["locs"].add(str(loc))
                    return
            rec = bucket.setdefault(
                self.display_name(base), {"kind": base.kind, "locs": set()}
            )
            rec["locs"].add(str(loc))

        mod: dict[str, dict] = {}
        ref: dict[str, dict] = {}
        for ptf in self.ptfs_of(proc_name):
            for loc in ptf.summary():
                account(mod, normalize_loc(loc))
            for raw in ptf.initial_entries:
                account(ref, raw.normalized().source)
        for bucket in (mod, ref):
            for rec in bucket.values():
                rec["locs"] = sorted(rec["locs"])
        return {
            "mod": {k: mod[k] for k in sorted(mod)},
            "ref": {k: ref[k] for k in sorted(ref)},
        }

    def _targets_in_ptf(self, ptf: PTF, var: str) -> set[LocationSet]:
        proc = ptf.proc
        loc = self._var_loc(proc, ptf, var)
        if loc is None:
            return set()
        vals = set(ptf.state.lookup_overlapping(loc, proc.exit, width=WORD_SIZE))
        initial = ptf.state.get_initial(normalize_loc(loc))
        if initial:
            vals |= initial
        return vals

    def formals_may_alias(self, proc_name: str) -> bool:
        """Whether any two pointer formals of ``proc_name`` may point to
        overlapping storage in any analyzed context (the parallelizer's
        question, §7)."""
        proc = self.program.procedures[proc_name]
        names = [f.name for f in proc.formals]
        for ptf in self.ptfs_of(proc_name):
            initial_targets: list[tuple[str, set[LocationSet]]] = []
            for name in names:
                block = proc.local_block(proc.locals[name])
                init = ptf.state.get_initial(LocationSet(block, 0, 0))
                if init:
                    initial_targets.append((name, set(init)))
            for i, (na, ta) in enumerate(initial_targets):
                for nb, tb in initial_targets[i + 1 :]:
                    for la in ta:
                        for lb in tb:
                            if la.base is lb.base and la.overlaps(
                                lb, width=WORD_SIZE, other_width=WORD_SIZE
                            ):
                                return True
        return False

    def is_pure(self, proc_name: str) -> bool:
        """Whether every analyzed context of ``proc_name`` writes only its
        own locals and return value (no caller-visible pointer effects).

        The parallelizer uses this to allow calls to helper functions
        (e.g. ``squash`` in alvinn) inside parallel loops.
        """
        from ..memory.blocks import LocalBlock, ReturnBlock

        ptfs = self.ptfs_of(proc_name)
        if not ptfs:
            return False
        for ptf in ptfs:
            for loc in ptf.summary():
                if not isinstance(loc.base, (LocalBlock, ReturnBlock)):
                    return False
        # transitively: everything this procedure calls must be pure too
        for callee in self._static_callees(proc_name):
            if callee == proc_name:
                continue
            if callee in self.program.procedures:
                if not self.is_pure(callee):
                    return False
            elif callee not in _PURE_LIBC:
                return False
        return True

    def _static_callees(self, proc_name: str) -> set[str]:
        from ..ir.expr import AddressTerm, ProcSymbol, SymbolLoc

        out: set[str] = set()
        proc = self.program.procedures.get(proc_name)
        if proc is None:
            return out
        for node in proc.call_nodes():
            direct = False
            for term in node.target.terms:
                if isinstance(term, AddressTerm) and isinstance(term.loc, SymbolLoc):
                    if isinstance(term.loc.symbol, ProcSymbol):
                        out.add(term.loc.symbol.name)
                        direct = True
            if not direct:
                out.add("<indirect>")
        return out

    # ------------------------------------------------------------------
    # call graph
    # ------------------------------------------------------------------

    def call_graph(self) -> dict[str, set[str]]:
        """caller -> set of callees actually resolved by the analysis."""
        graph: dict[str, set[str]] = {name: set() for name in self.program.procedures}
        for proc_name, proc in self.program.procedures.items():
            for node in proc.call_nodes():
                callees = self._resolved_targets(proc_name, node)
                graph[proc_name] |= callees
        return graph

    def callsites(self) -> list[dict]:
        """One record per static call site, with the analysis-resolved
        targets — what ``modref(callsite)`` queries are answered from.

        ``site`` is the call node's static site name (also the heap
        naming context), ``coord`` its source position, ``callees`` the
        resolved target set (function-pointer calls included).
        """
        out: list[dict] = []
        for proc_name in sorted(self.program.procedures):
            for node in self.program.procedures[proc_name].call_nodes():
                out.append(
                    {
                        "proc": proc_name,
                        "site": node.site,
                        "coord": node.coord or "",
                        "callees": sorted(
                            self._resolved_targets(proc_name, node)
                        ),
                    }
                )
        return out

    def _resolved_targets(self, proc_name: str, node: CallNode) -> set[str]:
        out: set[str] = set()
        from ..ir.expr import AddressTerm, SymbolLoc, ProcSymbol

        for term in node.target.terms:
            if isinstance(term, AddressTerm) and isinstance(term.loc, SymbolLoc):
                if isinstance(term.loc.symbol, ProcSymbol):
                    out.add(term.loc.symbol.name)
                    continue
        if out:
            return out
        # indirect call: read pointer values out of each PTF state
        for ptf in self.ptfs_of(proc_name):
            from .intra import ProcEvaluator
            from .context import Frame
            from .ptf import ParamMap

            frame = Frame(
                self.analyzer,
                ptf.proc,
                ptf,
                ptf.current_map or ParamMap(),
                None,
                self.analyzer.root,
            )
            vals = ProcEvaluator(self.analyzer, frame).eval_value(node.target, node)
            for v in vals:
                if isinstance(v.base, ProcedureBlock):
                    out.add(v.base.proc_name)
                elif isinstance(v.base, ExtendedParameter):
                    rep = v.base.representative()
                    for name in ptf.fnptr_domain.get(rep, ()):  # recorded domain
                        out.add(name)
        return out

    # ------------------------------------------------------------------
    # statistics (Table 2)
    # ------------------------------------------------------------------

    def stats(self) -> PTFStats:
        counts = [len(v) for v in self.analyzer.ptfs.values() if v]
        total = sum(counts)
        return PTFStats(
            procedures=len(self.program.procedures),
            analysis_seconds=self.analyzer.elapsed_seconds,
            avg_ptfs=(total / len(counts)) if counts else 0.0,
            total_ptfs=total,
            max_ptfs=max(counts) if counts else 0,
            source_lines=self.program.source_lines,
        )


def run_analysis(
    program: Program, options: Optional[AnalyzerOptions] = None
) -> AnalysisResult:
    """Analyze ``program`` and wrap the engine in the query facade."""
    return AnalysisResult(analyze(program, options))
