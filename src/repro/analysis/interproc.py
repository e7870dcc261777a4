"""Interprocedural evaluation: EvalCall / GetPTF / matchPTF / ApplySummary
(Figures 12–13) plus recursion handling (§5.4).

The machinery lives in a mixin inherited by :class:`repro.analysis.engine.
Analyzer` so the pieces are testable and readable in isolation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..frontend.ctypes_model import WORD_SIZE
from ..ir.expr import ContentsTerm
from ..ir.nodes import CallNode, Node
from ..ir.program import Procedure
from ..memory.blocks import (
    ExtendedParameter,
    GlobalBlock,
    HeapBlock,
    LocalBlock,
    ProcedureBlock,
    ReturnBlock,
    StringBlock,
)
from ..memory.locset import LocationSet
from ..memory.pointsto import normalize_loc
from .context import Frame, RootFrame
from .guards import GuardTripped, conservative_region
from .ptf import PTF, InitialEntry, ParamMap

if TYPE_CHECKING:  # pragma: no cover
    from .intra import ProcEvaluator

__all__ = ["InterproceduralMixin"]

EMPTY: frozenset = frozenset()


def _loc_key(loc: LocationSet) -> tuple:
    return (loc.base.uid, loc.offset, loc.stride)


class InterproceduralMixin:
    """Call-site evaluation for :class:`Analyzer`.

    Relies on attributes provided by the engine: ``program``, ``options``,
    ``stack`` (list of Frames), ``ptfs`` (proc name -> list of PTFs),
    ``libc`` (library summaries), ``metrics``, and the
    degradation machinery: ``budget`` (:class:`AnalysisBudget`),
    ``degradation`` (:class:`DegradationReport`), ``faults`` (optional
    :class:`FaultPlan`), ``_regions`` (conservative-region cache).
    """

    # ------------------------------------------------------------------
    # EvalCall (Figure 12)
    # ------------------------------------------------------------------

    def eval_call(self, frame: Frame, evaluator: "ProcEvaluator", node: CallNode) -> None:
        target_vals = evaluator.eval_value(node.target, node)
        targets = sorted(frame.resolve_fnptr_targets(target_vals))
        if not targets:
            # a function pointer with no values yet: defer to a later pass
            if node.uid not in frame.deferred:
                frame.deferred.add(node.uid)
                frame.changed = True
            return
        multiple = len(targets) > 1
        for name in targets:
            if name in self.program.procedures:
                self._call_internal(frame, evaluator, node, name, multiple)
            elif self.libc.handles(name):
                self.libc.apply(self, frame, evaluator, node, name)
            else:
                self._call_external(frame, evaluator, node, name)

    def call_procedure(
        self,
        frame: Frame,
        evaluator: "ProcEvaluator",
        node: CallNode,
        name: str,
        arg_values: list[frozenset],
    ) -> None:
        """Invoke an internal procedure with explicit argument values.

        Used by library summaries that call back through function pointers
        (``qsort``, ``atexit``, ``signal``...).
        """
        if name not in self.program.procedures:
            return
        proc = self.program.procedures[name]
        map_ = ParamMap()
        for formal, vals in zip(proc.formals, arg_values):
            map_.actuals[formal.name] = (
                ((0, 0, frozenset(vals)),) if vals else tuple()
            )
        for formal in proc.formals[len(arg_values):]:
            map_.actuals[formal.name] = tuple()
        on_stack = self._stack_frame(name)
        if on_stack is None and self._guard_degraded(frame, node, proc):
            return
        self._dispatch_internal(frame, node, proc, map_, True, on_stack)

    # -- internal calls ----------------------------------------------------

    def _call_internal(
        self,
        frame: Frame,
        evaluator: "ProcEvaluator",
        node: CallNode,
        name: str,
        multiple: bool,
    ) -> None:
        """Dispatch one internal target of a call node, through the
        call-site memo of the caller's PTF.

        A dispatch that reused a callee PTF by match, with no revisit, no
        deferral and no change to the caller's frame, is recorded with
        everything it read: the caller-state bases (with their write
        stamps and pointer versions), the caller's renormalization version
        and parameter count, and a fingerprint of the callee's PTFs.
        While all of those are unchanged, re-running it would read the
        same inputs and write nothing new, so it is skipped.
        """
        proc = self.program.procedures[name]
        on_stack = self._stack_frame(name)
        if on_stack is None and self._guard_degraded(frame, node, proc):
            return
        caller = frame.ptf
        state = caller.state
        if self.options.heap_context_depth:
            map_ = self._record_actuals(frame, evaluator, node, proc)
            self._dispatch_internal(frame, node, proc, map_, multiple, on_stack)
            return
        memo = caller.call_memo
        key = (node.uid, name, multiple, -1 if on_stack is None else on_stack.ptf.uid)
        record = memo.get(key)
        if (
            record is not None
            and record[0] == state.read_version()
            and record[1] == len(caller.params)
            and state.reads_unchanged(record[3])
            and record[2] == self._callee_fingerprint(name)
        ):
            self.metrics.call_memo_hits += 1
            return
        self.metrics.call_memo_misses += 1
        renorm = state.read_version()
        nparams = len(caller.params)
        fingerprint = self._callee_fingerprint(name)
        raised = frame.changed
        frame.changed = False
        unbound = frame.unbound_inputs
        outer = state.begin_reads()
        try:
            map_ = self._record_actuals(frame, evaluator, node, proc)
            reused = self._dispatch_internal(frame, node, proc, map_, multiple, on_stack)
        finally:
            reads = state.end_reads(outer)
            changed = frame.changed
            frame.changed = raised or changed
        # versions are the ones seen before the dispatch: if it moved any
        # of them (dropped an orphan PTF, bumped a summary generation,
        # added a caller parameter), the record simply never hits
        if (
            reused
            and not changed
            and fingerprint is not None
            and unbound == frame.unbound_inputs
        ):
            memo[key] = (renorm, nparams, fingerprint, reads)
        else:
            memo.pop(key, None)

    def _callee_fingerprint(self, name: str) -> Optional[tuple]:
        """Everything about ``name``'s PTFs that matching, revisit checks
        and summary application read, flattened into one tuple; None when
        a PTF has function-pointer inputs, whose match resolves through
        the caller's parameter map and its callers rather than its state
        (such calls are not memoized)."""
        out: list = []
        for ptf in self.ptfs.get(name, ()):  # type: ignore[attr-defined]
            if ptf.fnptr_domain:
                return None
            out += (
                ptf.uid,
                ptf.resets,
                ptf.state.change_counter,
                len(ptf.initial_entries),
                ptf.summary_generation,
                len(ptf.params),
                ptf.analyzing,
                ptf.is_recursive,
                self._stale_recursive_deps(ptf),
            )
        return tuple(out)

    def _guard_degraded(self, frame: Frame, node: CallNode, proc: Procedure) -> bool:
        """Run the pre-dispatch resource checks; when one trips, summarize
        the call by the conservative havoc and return True."""
        guard = self._guard_reason(proc.name)
        if guard is None:
            return False
        reason, detail = guard
        if self.options.strict:
            raise GuardTripped(reason, proc.name, detail)
        if reason != "quarantined":
            self.metrics.guard_trips += 1
        if reason == "injected":
            # deterministic per-procedure verdict: it would trip on
            # every dispatch, so quarantine it outright
            self.degradation.quarantine(proc.name, reason, detail)
            tr = self.trace
            if tr is not None:
                tr.instant(
                    "degrade.proc",
                    "interproc",
                    proc=proc.name,
                    reason=reason,
                    detail=detail,
                )
        self._degrade_call(frame, node, proc.name, reason, detail)
        return True

    def _dispatch_internal(
        self,
        frame: Frame,
        node: CallNode,
        proc: Procedure,
        map_: ParamMap,
        apply_weak: bool,
        on_stack: Optional[Frame],
    ) -> bool:
        """Match (or create and analyze) the callee's PTF and apply its
        summary.  Returns True when an existing PTF was reused with no
        revisit, or a recursive call applied the head's summary without
        deferring — the dispatches the call-site memo may record."""
        if on_stack is None:
            ptf, need_visit = self.get_ptf(frame, node, proc, map_)
            if need_visit:
                if not self._analyze_ptf(frame, node, proc, ptf, map_):
                    return False  # guard tripped: havoc fallback already applied
            self.apply_summary(frame, node, ptf, map_, weak=apply_weak)
            # record the summary generation we consumed, so callers of
            # recursive cycles revisit when the head's summary grows
            if ptf.is_recursive:
                frame.ptf.recursive_deps[ptf.uid] = (
                    ptf.summary_generation
                )
            return not need_visit
        # recursive call: reuse the PTF already on the call stack (§5.4)
        head_ptf = on_stack.ptf
        head_ptf.is_recursive = True
        self.metrics.recursive_calls += 1
        tr = self.trace
        if tr is not None:
            tr.instant(
                "recursive_call",
                "interproc",
                proc=proc.name,
                head_ptf=head_ptf.uid,
                call_site=node.site,
            )
        self._merge_recursive_domain(frame, node, head_ptf, map_)
        if not head_ptf.summary():
            if node.uid not in frame.deferred:
                frame.deferred.add(node.uid)
                frame.changed = True
            return False  # defer: no approximation available yet
        # bind the head's parameters against *this* recursive context so
        # the summary translates into it (merge mode, not strict match)
        self._merge_into_ptf(frame, node, head_ptf, map_)
        self.apply_summary(frame, node, head_ptf, map_, weak=True)
        frame.ptf.recursive_deps[head_ptf.uid] = (
            head_ptf.summary_generation
        )
        return True

    def _analyze_ptf(
        self,
        frame: Frame,
        node: Optional[CallNode],
        proc: Procedure,
        ptf: PTF,
        map_: ParamMap,
    ) -> bool:
        """(Re)analyze ``proc`` for the context bound in ``map_``; iterate
        to a fixpoint when the procedure heads a recursive cycle.

        Returns True on success.  When a resource guard trips during the
        evaluation (and ``--strict`` is off), the partial PTF — an
        *under*-approximation, unsound to apply — is discarded, the
        procedure is quarantined, the call is summarized by the
        conservative havoc stub, and False is returned so the caller
        skips ``apply_summary``.
        """
        from .intra import ProcEvaluator

        tr = self.trace
        if tr is not None:
            tr.begin("analyze_ptf", "interproc", proc=proc.name, ptf=ptf.uid)
        iterations = 0
        budget = self.budget
        try:
            try:
                for _ in range(self.options.max_recursion_iters):
                    iterations += 1
                    child = Frame(self, proc, ptf, map_, node, frame)
                    ptf.current_map = map_
                    ptf.analyzing = True
                    self.stack.append(child)
                    budget.note_depth(len(self.stack))
                    try:
                        ProcEvaluator(self, child).run()
                    finally:
                        self.stack.pop()
                        ptf.analyzing = False
                    gen_before = ptf.summary_generation
                    ptf.summary()  # refresh cache, maybe bumping the generation
                    if not ptf.is_recursive or ptf.summary_generation == gen_before:
                        break
            except GuardTripped as trip:
                if not trip.proc:
                    trip.proc = proc.name
                if self.options.strict:
                    raise
                self._quarantine_ptf(proc, ptf, trip)
                if node is not None:
                    self._degrade_call(
                        frame, node, proc.name, trip.reason, trip.detail
                    )
                return False
        finally:
            if tr is not None:
                tr.end(
                    "analyze_ptf",
                    "interproc",
                    proc=proc.name,
                    ptf=ptf.uid,
                    iterations=iterations,
                    pattern=ptf.alias_pattern(),
                )
        ptf.snapshot_pointer_versions(map_)
        self.metrics.ptf_analyses += 1
        return True

    def _stack_frame(self, proc_name: str) -> Optional[Frame]:
        for fr in reversed(self.stack):
            if fr.proc is not None and fr.proc.name == proc_name:
                return fr
        return None

    # ------------------------------------------------------------------
    # actuals
    # ------------------------------------------------------------------

    def _record_actuals(
        self,
        frame: Frame,
        evaluator: "ProcEvaluator",
        node: CallNode,
        proc: Procedure,
    ) -> ParamMap:
        map_ = ParamMap()
        formals = proc.formals
        for i, formal in enumerate(formals):
            if i >= len(node.args):
                map_.actuals[formal.name] = tuple()
                continue
            map_.actuals[formal.name] = self._actual_entries(
                evaluator, node, node.args[i]
            )
        if proc.is_varargs and len(node.args) > len(formals) and formals:
            # extra arguments are reachable through va_arg walks of the last
            # formal's block; fold their values in at word stride
            extra: set[LocationSet] = set()
            for arg in node.args[len(formals):]:
                extra |= evaluator.eval_value(arg, node)
            if extra:
                last = formals[-1]
                entries = list(map_.actuals.get(last.name, ()))
                entries.append((0, WORD_SIZE, frozenset(extra)))
                map_.actuals[last.name] = tuple(entries)
        return map_

    def _actual_entries(
        self, evaluator: "ProcEvaluator", node: CallNode, arg
    ) -> tuple:
        """Evaluate one actual argument to ``(offset, stride, values)``
        entries; aggregates contribute their pointer fields per offset."""
        entries: list[tuple[int, int, frozenset]] = []
        scalar: set[LocationSet] = set()
        for term in arg.terms:
            if isinstance(term, ContentsTerm) and term.size > WORD_SIZE:
                for src in evaluator.eval_loc(term.loc, node):
                    for offset, stride, vals in evaluator._pointer_fields(
                        src, node, term.size
                    ):
                        entries.append((offset - src.offset, stride, vals))
                continue
            partial = evaluator.eval_value(
                type(arg)((term,)), node
            )
            scalar |= partial
        if scalar:
            entries.insert(0, (0, 0, frozenset(scalar)))
        return tuple(entries)

    # ------------------------------------------------------------------
    # GetPTF / matchPTF (Figure 13, §5.2)
    # ------------------------------------------------------------------

    def get_ptf(
        self, frame: Frame, node: CallNode, proc: Procedure, map_: ParamMap
    ) -> tuple[PTF, bool]:
        home_key = (node.uid, frame.ptf.uid if frame.ptf is not None else -1)
        home: Optional[PTF] = None
        tr = self.trace
        tried = 0
        # Emami mode (§6 ablation): only the same call site in the same
        # caller context may reuse a summary — cross-site reuse is what the
        # paper adds, so turning it off reproduces reanalysis-per-context
        candidates = self.ptfs.get(proc.name, ())  # type: ignore[attr-defined]
        if not self.options.reuse_ptfs:
            candidates = [c for c in candidates if c.home == home_key]
        for candidate in candidates:
            trial = map_.copy()
            verdict = self.match_ptf(candidate, frame, node, trial)
            if verdict is not None:
                map_.actuals = trial.actuals
                map_.param_values = trial.param_values
                for raw, values in self._match_upgrades:
                    self._upgrade_entry(candidate, frame, node, map_, raw, values)
                need_visit = candidate.inputs_gained_pointers(map_)
                # the registry versions of the bound blocks decide the
                # revisit: they belong to the dispatch's read set
                frame.ptf.state.note_reads(
                    loc.base for vals in map_.param_values.values() for loc in vals
                )
                if verdict:  # binding was widened: re-analyze to cover it
                    need_visit = True
                if self._stale_recursive_deps(candidate):
                    need_visit = True
                    if tr is not None:
                        tr.instant(
                            "ptf.invalidate",
                            "interproc",
                            proc=proc.name,
                            ptf=candidate.uid,
                            reason="recursive summary grew",
                        )
                self.metrics.ptf_reuses += 1
                if tr is not None:
                    tr.instant(
                        "ptf.reuse",
                        "interproc",
                        proc=proc.name,
                        ptf=candidate.uid,
                        pattern=candidate.alias_pattern(),
                        call_site=node.site,
                        revisit=need_visit,
                        tried=tried,
                    )
                # a PTF created for an *intermediate* input of this same
                # call site is now superseded by the matching one: drop it
                # (§5.2 keeps one PTF per converged input pattern, not one
                # per fixpoint-iteration artifact)
                self._drop_orphan_home(proc, candidate, home_key)
                return candidate, need_visit
            tried += 1
            if candidate.home == home_key:
                home = candidate
        if tr is not None and tried:
            tr.instant(
                "ptf.miss",
                "interproc",
                proc=proc.name,
                call_site=node.site,
                tried=tried,
            )
        if home is not None:
            # same call site, new inputs mid-iteration: update in place
            home.reset()
            self.metrics.ptf_home_updates += 1
            if tr is not None:
                tr.instant(
                    "ptf.home_update",
                    "interproc",
                    proc=proc.name,
                    ptf=home.uid,
                    call_site=node.site,
                )
            return home, True
        per_proc = self.ptfs.get(proc.name, ())
        cap = self.budget.max_ptfs_total
        over_total = cap is not None and len(self._ptf_by_uid) >= cap
        if per_proc and (len(per_proc) >= self.options.ptf_limit or over_total):
            # §8: beyond the limit, generalize instead of multiplying PTFs —
            # reuse the first PTF, merging this context into its domain.
            # The same force-merge serves the run-wide PTF budget
            # (``max_ptfs_total``): at the cap no procedure may grow its
            # PTF list, so every new context folds into the first summary.
            fallback = per_proc[0]
            self._merge_into_ptf(frame, node, fallback, map_)
            self.metrics.note_generalization(proc.name)
            if tr is not None:
                tr.instant(
                    "ptf.generalize",
                    "interproc",
                    proc=proc.name,
                    ptf=fallback.uid,
                    call_site=node.site,
                    limit=cap if over_total else self.options.ptf_limit,
                )
            return fallback, True
        ptf = self.new_ptf(proc)
        ptf.home = home_key
        self.metrics.ptf_created += 1
        if tr is not None:
            tr.instant(
                "ptf.create",
                "interproc",
                proc=proc.name,
                ptf=ptf.uid,
                call_site=node.site,
            )
        return ptf, True

    def _drop_orphan_home(self, proc: Procedure, keep: PTF, home_key: tuple) -> None:
        ptfs = self.ptfs.get(proc.name)
        if not ptfs:
            return
        for other in list(ptfs):
            if other is not keep and other.home == home_key and not other.analyzing:
                ptfs.remove(other)
                self._ptf_by_uid.pop(other.uid, None)

    def _upgrade_entry(
        self,
        ptf: PTF,
        frame: Frame,
        node: CallNode,
        map_: ParamMap,
        raw: InitialEntry,
        values: frozenset,
    ) -> None:
        """Create the parameter for an initial entry recorded before its
        input held pointers, then refresh the state's initial value."""
        shim = Frame(self, ptf.proc, ptf, map_, node, frame)
        targets = shim.to_callee_targets(values, raw.source)
        raw.targets = targets
        ptf.state.set_initial(raw.source, targets)

    def _merge_into_ptf(
        self, frame: Frame, node: CallNode, ptf: PTF, map_: ParamMap
    ) -> None:
        """Merge a non-matching context into ``ptf`` (PTF-limit fallback):
        bind its parameters against this context without strict equality."""
        for raw in list(ptf.initial_entries):
            entry = raw.normalized()
            values = self._entry_values(entry, ptf.proc, frame, node, map_)
            if values is None or not entry.targets:
                continue
            self._bind_targets(entry.targets, values, map_, strict=False)

    def _stale_recursive_deps(self, ptf: PTF) -> bool:
        deps = ptf.recursive_deps
        for uid, gen in deps.items():
            current = self._ptf_by_uid.get(uid)
            if current is not None and current.summary_generation > gen:
                return True
        return False

    def match_ptf(
        self, ptf: PTF, frame: Frame, node: CallNode, map_: ParamMap
    ) -> Optional[bool]:
        """Whether ``ptf`` applies at this call, binding ``map_`` as we go.

        Walks the initial points-to entries in creation order, comparing the
        input aliases; then compares the function-pointer values (§5.2).
        Returns None on mismatch, False on an exact match, True when the
        match widened a parameter binding (the PTF must be re-visited).
        """
        if ptf.analyzing:
            return None
        proc = ptf.proc
        extended = False
        self._match_upgrades = []
        for raw in list(ptf.initial_entries):
            entry = raw.normalized()
            values = self._entry_values(entry, proc, frame, node, map_)
            if values is None:
                return None
            if not entry.targets:
                if values:
                    # the entry was created before this input held pointers;
                    # same alias pattern as long as the values touch no
                    # already-bound parameter — upgrade the entry on reuse
                    if any(
                        v.base is b.base
                        for v in values
                        for vals in map_.param_values.values()
                        for b in vals
                    ):
                        return None
                    self._match_upgrades.append((raw, values))
                    extended = True
                continue
            verdict = self._bind_targets(entry.targets, values, map_, strict=True)
            if verdict is None:
                return None
            if verdict == "extended":
                extended = True
        # function-pointer input values must match (§5.2)
        for param, expected in ptf.fnptr_domain.items():
            rep = param.representative()
            bound = map_.lookup_param(rep)
            if bound is None:
                return None
            resolved = frozenset(frame.resolve_fnptr_targets(bound))
            if resolved != expected:
                return None
        return extended

    def _entry_values(
        self,
        entry: InitialEntry,
        proc: Procedure,
        frame: Frame,
        node: CallNode,
        map_: ParamMap,
    ) -> Optional[frozenset]:
        """The caller-space values of an initial entry's source pointer in
        the current context (None when the source cannot be mapped)."""
        src = entry.source
        base = src.base
        if isinstance(base, LocalBlock):
            name = base.name.split("::")[-1]
            entries = map_.actuals.get(name)
            if entries is None:
                return frozenset()
            values: set[LocationSet] = set()
            for offset, stride, vals in entries:
                probe = LocationSet(base, offset, stride)
                if probe.overlaps(src, width=1, other_width=max(1, WORD_SIZE)):
                    values |= vals
            return frozenset(values)
        if isinstance(base, ExtendedParameter):
            caller_locs = map_.caller_locations(src)
            if caller_locs is None:
                # parameter not bound yet: for a global parameter we can
                # bind it structurally; anything else is a mismatch
                rep = base.representative()
                if rep.global_block is not None:
                    caller_block = frame.caller_block_for_global(rep.global_block.name)
                    map_.bind_param(rep, frozenset({LocationSet(caller_block, 0, 0)}))
                    caller_locs = map_.caller_locations(src)
                else:
                    return None
            values = set()
            for cl in caller_locs:
                values |= frame.lookup_value(cl, node, WORD_SIZE)
            return frozenset(values)
        return None

    def _bind_targets(
        self,
        targets: frozenset,
        values: frozenset,
        map_: ParamMap,
        strict: bool,
    ) -> Optional[str]:
        """Bind/check one entry's targets against caller values.

        Targets hold at most one extended parameter (§3.2) plus structural
        values that pass through untranslated (procedure blocks — function
        pointers are code addresses, not storage).

        Returns "match" when the context reproduces the entry exactly,
        "extended" when the same *objects* are involved but at different
        offsets/strides (the binding is widened and the caller must
        re-visit the PTF), or None on a mismatch.
        """
        structural = frozenset(
            t for t in targets if not isinstance(t.base, ExtendedParameter)
        )
        param_targets = [t for t in targets if isinstance(t.base, ExtendedParameter)]
        if strict and not structural <= values:
            return None
        values = values - structural
        if not param_targets:
            return "match" if (not strict or not values) else None
        target = param_targets[0]
        param = target.base.representative()
        if target.stride == 0 and target.offset:
            unshifted = frozenset(
                v.with_offset(-target.offset) if v.stride == 0 else v for v in values
            )
        else:
            unshifted = values
        bound = map_.lookup_param(param)
        if bound is not None:
            expected = map_.caller_locations(target) or EMPTY
            if not strict:
                map_.extend_param(param, unshifted)
                return "match"
            if values == expected:
                return "match"
            # same objects, different offsets/strides: the alias *pattern*
            # matches (subsumption produced this entry); widen the binding
            if values and {v.base for v in values} <= {e.base for e in expected}:
                map_.extend_param(param, unshifted)
                return "extended"
            return None
        # first occurrence of this parameter: bind, ensuring no alias with
        # previously bound parameters (strict mode, object granularity);
        # an empty binding is fine — the parameter stands for "whatever the
        # input points to", and this context supplies nothing yet
        if strict:
            for other, other_vals in map_.param_values.items():
                if other is param:
                    continue
                if any(v.base is b.base for v in unshifted for b in other_vals):
                    return None
        map_.bind_param(param, unshifted)
        return "match"

    # ------------------------------------------------------------------
    # recursion (§5.4)
    # ------------------------------------------------------------------

    def _merge_recursive_domain(
        self, frame: Frame, node: CallNode, head_ptf: PTF, rec_map: ParamMap
    ) -> None:
        """Record a recursive call's inputs as the PTF's *second* input
        domain (§5.4).

        The recursive context's values live in the *current* frame's name
        space, not the head's calling context, so they must never merge
        into the head's parameter map (that would conflate name spaces and
        corrupt summary translation).  Instead they are kept separately:
        the per-site ``rec_map`` — bound against the head's parameters by
        ``_merge_into_ptf`` before each summary application — carries the
        recursive bindings, and this record only tracks the merged domain
        for diagnostics and reuse statistics.
        """
        entries = rec_map.actuals
        domain = head_ptf.recursive_domain
        for name, actual in entries.items():
            old = domain.get(name, tuple())
            merged = list(old)
            for e in actual:
                if e not in merged:
                    merged.append(e)
            domain[name] = tuple(merged)

        # ------------------------------------------------------------------
    # ApplySummary (§5.3)
    # ------------------------------------------------------------------

    def apply_summary(
        self,
        frame: Frame,
        node: CallNode,
        ptf: PTF,
        map_: ParamMap,
        weak: bool = False,
    ) -> None:
        self._bind_global_params(ptf, frame, map_)
        summary = ptf.summary()
        tr = self.trace
        if tr is not None:
            tr.instant(
                "apply_summary",
                "interproc",
                proc=ptf.proc.name,
                ptf=ptf.uid,
                call_site=node.site,
                entries=len(summary),
                weak=weak,
            )
        prov = self.provenance
        return_values: dict[int, frozenset] = {}
        site = node.site
        try:
            for loc, vals in summary.items():
                caller_vals = self._translate_values(vals, map_, site)
                base = loc.base
                if isinstance(base, ReturnBlock):
                    if base.proc_name == ptf.proc.name:
                        old = return_values.get(loc.offset, EMPTY)
                        return_values[loc.offset] = old | caller_vals
                    continue
                caller_dsts = self._translate_location(loc, map_, site)
                if not caller_dsts:
                    continue
                strong = (
                    not weak
                    and self.options.strong_updates
                    and len(caller_dsts) == 1
                    and next(iter(caller_dsts)).is_unique
                )
                if prov is not None:
                    # the callee-space location is the chain's next hop: its
                    # own derivations were recorded while the PTF was analyzed
                    prov.set_context(
                        "summary",
                        sources=(str(normalize_loc(loc)),),
                        detail=f"summary of {ptf.proc.name} PTF#{ptf.uid}",
                    )
                for dst in caller_dsts:
                    frame.assign(dst, caller_vals, node, strong)
        finally:
            if prov is not None:
                prov.clear_context()
        if node.dst is not None and return_values:
            if prov is not None:
                prov.set_context(
                    "summary",
                    sources=tuple(
                        str(LocationSet(ptf.proc.return_block, off, 0))
                        for off in sorted(return_values)
                    ),
                    detail=f"return of {ptf.proc.name} PTF#{ptf.uid}",
                )
            try:
                self._assign_return(frame, node, return_values, weak)
            finally:
                if prov is not None:
                    prov.clear_context()

    def _bind_global_params(self, ptf: PTF, frame: Frame, map_: ParamMap) -> None:
        """Global parameters are structural: they always map to the caller's
        own representation of the same global, whether or not they appeared
        in an initial points-to entry (§2.2)."""
        for param in ptf.params:
            rep = param.representative()
            if rep.global_block is None:
                continue
            if map_.lookup_param(rep) is None:
                block = frame.caller_block_for_global(rep.global_block.name)
                map_.bind_param(rep, frozenset({LocationSet(block, 0, 0)}))

    def _assign_return(
        self,
        frame: Frame,
        node: CallNode,
        return_values: dict[int, frozenset],
        weak: bool,
    ) -> None:
        from .intra import ProcEvaluator  # local import to avoid cycle

        evaluator = ProcEvaluator(self, frame)
        dsts = evaluator.eval_loc(node.dst, node)
        if not dsts:
            return
        # no strong updates when several callee summaries combine (§5.3)
        strong = (
            not weak
            and self.options.strong_updates
            and len(dsts) == 1
            and dsts[0].is_unique
            and len(return_values) == 1
        )
        for offset, vals in return_values.items():
            for dst in dsts:
                target = dst.with_offset(offset) if dst.stride == 0 else dst
                frame.assign(
                    target, vals, node, strong, size=node.dst_size or WORD_SIZE
                )

    def _translate_location(
        self, loc: LocationSet, map_: ParamMap, call_site: str = ""
    ) -> frozenset:
        base = loc.base
        if isinstance(base, HeapBlock):
            if call_site and self.options.heap_context_depth > 0:
                rekeyed = self.rekey_heap(base, call_site)
                return frozenset({LocationSet(rekeyed, loc.offset, loc.stride)})
            return frozenset({loc})
        if isinstance(base, (StringBlock, ProcedureBlock, GlobalBlock)):
            return frozenset({loc})
        if isinstance(base, ExtendedParameter):
            out = map_.caller_locations(loc)
            return out if out is not None else EMPTY
        # callee locals and return blocks do not exist in the caller (§5.3)
        return EMPTY

    def _translate_values(
        self, values: frozenset, map_: ParamMap, call_site: str = ""
    ) -> frozenset:
        out: set[LocationSet] = set()
        for v in values:
            base = v.base
            if isinstance(base, HeapBlock):
                if call_site and self.options.heap_context_depth > 0:
                    rekeyed = self.rekey_heap(base, call_site)
                    out.add(LocationSet(rekeyed, v.offset, v.stride))
                else:
                    out.add(v)
            elif isinstance(base, (StringBlock, ProcedureBlock, GlobalBlock)):
                out.add(v)
            elif isinstance(base, ExtendedParameter):
                mapped = map_.caller_locations(v)
                if mapped:
                    out |= mapped
            # locals vanish (a dangling pointer has no caller-space name)
        return frozenset(out)

    # ------------------------------------------------------------------
    # the degradation ladder (guards.py): guard checks, quarantine, and
    # the sound conservative havoc fallback for degraded internal calls
    # ------------------------------------------------------------------

    def _guard_reason(self, proc_name: str) -> Optional[tuple[str, str]]:
        """Pre-dispatch resource checks: the explicit replacement for
        "recurse until Python's stack gives out".

        Returns ``(reason, detail)`` when dispatching to ``proc_name``
        must degrade, or None when the call may proceed.  Checked before
        every internal dispatch; with all budgets at their defaults this
        is a set probe, two None compares and an int compare.
        """
        if proc_name in self.degradation.quarantined:
            return "quarantined", "procedure previously quarantined"
        budget = self.budget
        if budget.deadline_at is not None and budget.deadline_exceeded():
            return (
                "deadline",
                f"wall-clock budget of {budget.deadline_seconds}s exhausted",
            )
        depth = len(self.stack) + 1
        if depth > budget.max_call_depth:
            return (
                "call_depth",
                f"analysis call depth {depth} exceeds the bound of "
                f"{budget.max_call_depth}",
            )
        cap = budget.max_ptfs_total
        if (
            cap is not None
            and len(self._ptf_by_uid) >= cap
            and not self.ptfs.get(proc_name)
        ):
            # at the cap and no PTF of this procedure to generalize into
            return "ptf_cap", f"{len(self._ptf_by_uid)} live PTFs at the cap of {cap}"
        faults = self.faults
        if faults is not None and faults.exhaust(proc_name):
            return "injected", "injected budget exhaustion"
        return None

    def _quarantine_ptf(self, proc: Procedure, ptf: PTF, trip: GuardTripped) -> None:
        """Discard a guard-tripped partial PTF and quarantine its procedure.

        The tripped PTF's state is an *under*-approximation of the
        procedure's behaviour (the fixpoint never completed), so applying
        it would be unsound; every call to the procedure — this one and
        all later ones — degrades to the conservative havoc stub instead.
        """
        self.metrics.guard_trips += 1
        ptfs = self.ptfs.get(proc.name)
        if ptfs is not None and ptf in ptfs:
            ptfs.remove(ptf)
        self._ptf_by_uid.pop(ptf.uid, None)
        self.degradation.quarantine(proc.name, trip.reason, trip.detail)
        tr = self.trace
        if tr is not None:
            tr.instant(
                "degrade.proc",
                "interproc",
                proc=proc.name,
                reason=trip.reason,
                detail=trip.detail,
            )

    def _region(self, proc_name: str):
        regions = self._regions
        region = regions.get(proc_name)
        if region is None:
            region = conservative_region(self.program, proc_name)
            regions[proc_name] = region
        return region

    def _degrade_call(
        self,
        frame: Frame,
        node: CallNode,
        proc_name: str,
        reason: str,
        detail: str = "",
    ) -> None:
        """Summarize a degraded call with a *sound* conservative havoc.

        This widens the external-call policy (``_call_external``) to be
        sound for *internal* procedures.  An unknown external can only
        touch its arguments and its own storage; a skipped internal
        procedure can additionally read and write every global it
        transitively references (and, through an indirect call, anything
        address-taken).  So the havoc set is the transitive pointer
        closure of

        * the argument values at this call site, plus
        * the procedure's conservative region (``guards.conservative_
          region``): its statically reachable globals — resolved through
          this frame's extended-parameter representation so the caller's
          own reads observe the havoc — widened to the whole program
          when the region contains an indirect or unknown call,

        and every reachable storage block is weakly assigned the whole
        pool: the region's code addresses (function pointers the callee
        could hand out), its string literals, every reachable block
        blurred, and one opaque ``<degraded:proc>`` block standing for
        storage the callee allocates or owns.  Because the call node is
        re-evaluated on every fixpoint pass of the caller, values that
        grow later re-enter the closure — exactly the external-call
        discipline.
        """
        from .intra import ProcEvaluator

        self.metrics.degraded_calls += 1
        site = node.site
        self.degradation.record(proc_name, reason, detail, call_site=site)
        evaluator = ProcEvaluator(self, frame)
        program = self.program
        region = self._region(proc_name)
        # -- roots: argument values + the region's globals -----------------
        roots: set[LocationSet] = set()
        for arg in node.args:
            roots |= evaluator.eval_value(arg, node)
        gnames = set(program.globals) if region.world else set(region.globals)
        for gname in sorted(gnames):
            block = frame.caller_block_for_global(gname)
            roots.add(LocationSet(block, 0, 0))
        # -- transitive pointer closure over reachable storage -------------
        pool: set[LocationSet] = set()
        havoc_targets: set[LocationSet] = set()
        seen_blocks: set = set()
        work = sorted(roots, key=_loc_key, reverse=True)
        while work:
            v = work.pop()
            base = v.base
            if isinstance(base, (ProcedureBlock, StringBlock)):
                pool.add(v)  # code / read-only characters: values, not storage
                continue
            if base in seen_blocks:
                continue
            seen_blocks.add(base)
            blurred = v.blurred()
            havoc_targets.add(blurred)
            pool.add(blurred)
            # pointers already stored in the block extend the closure
            for off, stride in sorted(base.pointer_locations):
                probe = LocationSet(base, off, stride)
                for nv in sorted(
                    frame.lookup_value(probe, node, WORD_SIZE), key=_loc_key
                ):
                    if nv.base not in seen_blocks:
                        work.append(nv)
        # -- the region's code and string addresses -------------------------
        pnames = set(program.procedures) if region.world else set(region.procs)
        for pname in sorted(pnames):
            pool.add(LocationSet(program.proc_block(pname), 0, 0))
        sites = set(program.string_blocks) if region.world else set(region.strings)
        for ssite in sorted(sites):
            sblock = program.string_blocks.get(ssite)
            if sblock is not None:
                pool.add(LocationSet(sblock, 0, 1))
        # -- the callee's own opaque storage --------------------------------
        internal = self._degraded_block(proc_name)
        internal_loc = LocationSet(internal, 0, 1)
        havoc_targets.add(internal_loc)
        pool.add(internal_loc)
        pool_f = frozenset(pool)
        prov = self.provenance
        if prov is not None:
            prov.set_context(
                "external", detail=f"degraded call to {proc_name} ({reason})"
            )
        try:
            for target in sorted(havoc_targets, key=_loc_key):
                frame.assign(target, pool_f, node, False)
            if node.dst is not None:
                dsts = evaluator.eval_loc(node.dst, node)
                for dst in dsts:
                    frame.assign(dst, pool_f, node, len(dsts) == 1 and dst.is_unique)
        finally:
            if prov is not None:
                prov.clear_context()
        tr = self.trace
        if tr is not None:
            tr.instant(
                "degrade.call",
                "interproc",
                proc=proc_name,
                reason=reason,
                call_site=site,
                pool=len(pool_f),
            )

    def _degraded_block(self, name: str) -> GlobalBlock:
        blocks = self.__dict__.setdefault("_degraded_blocks", {})
        block = blocks.get(name)
        if block is None:
            block = GlobalBlock(f"<degraded:{name}>")
            block.register_pointer_location(0, 1)
            blocks[name] = block
        return block

    # ------------------------------------------------------------------
    # external (non-libc) calls
    # ------------------------------------------------------------------

    def _call_external(
        self, frame: Frame, evaluator: "ProcEvaluator", node: CallNode, name: str
    ) -> None:
        self.metrics.external_calls += 1
        tr = self.trace
        if tr is not None:
            tr.instant(
                "external_call",
                "interproc",
                name=name,
                policy=self.options.external_policy,
                call_site=node.site,
            )
        if self.options.external_policy == "ignore":
            return
        # havoc: anything reachable from the arguments may be overwritten
        # with anything else reachable from the arguments or the external
        # world's own storage
        external = self._external_block(name)
        reachable: set[LocationSet] = set()
        for arg in node.args:
            reachable |= evaluator.eval_value(arg, node)
        pool = frozenset(
            {LocationSet(external, 0, 1)}
            | {v.blurred() for v in reachable}
        )
        prov = self.provenance
        if prov is not None:
            prov.set_context("external", detail=f"havoc by extern {name}")
        try:
            for target in reachable:
                if isinstance(target.base, (ProcedureBlock, StringBlock)):
                    continue
                frame.assign(target.blurred(), pool, node, False)
            if node.dst is not None:
                dsts = evaluator.eval_loc(node.dst, node)
                for dst in dsts:
                    frame.assign(
                        dst, pool, node, len(dsts) == 1 and dst.is_unique
                    )
        finally:
            if prov is not None:
                prov.clear_context()

    def _external_block(self, name: str) -> GlobalBlock:
        blocks = self.__dict__.setdefault("_external_blocks", {})
        block = blocks.get(name)
        if block is None:
            block = GlobalBlock(f"<extern:{name}>")
            block.register_pointer_location(0, 1)
            blocks[name] = block
        return block
