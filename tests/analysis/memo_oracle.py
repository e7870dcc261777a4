"""Reference check for the call-site memo of the interprocedural layer.

``InterproceduralMixin._call_internal`` skips a call dispatch when
nothing its last recorded dispatch read has changed.  The claim behind
the skip is that re-running the dispatch would write nothing.
:class:`MemoOracleAnalyzer` tests that claim directly: on every memo hit
it runs the dispatch anyway, on the real state, and records a violation
when the re-run

* writes a def, φ or initial entry in any PTF state (any state's
  ``change_counter`` moves),
* registers a new pointer location on any block,
* creates, resets, analyzes, generalizes or drops a PTF, adds a
  parameter, grows a function-pointer domain or bumps a summary
  generation,
* takes a deferral or a revisit (the dispatch reports no plain reuse),
  or raises the caller frame's ``changed`` flag.

Because the re-run happens, the oracle's own end state is the one the
analysis would reach without the memo; :func:`oracle_run` returns it so a
test can compare its digest with the memoized and the uncached runs.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.engine import Analyzer, AnalyzerOptions
from repro.analysis.results import AnalysisResult
from repro.memory.blocks import MemoryBlock

_PTF_STATS = ("ptf_created", "ptf_home_updates", "ptf_analyses", "ptf_generalizations")


class MemoOracleAnalyzer(Analyzer):
    """An analyzer that re-runs every memoized call dispatch and records
    the ones that would have changed something."""

    def __init__(self, program, options: Optional[AnalyzerOptions] = None) -> None:
        super().__init__(program, options)
        #: memo hits re-run and checked
        self.checked = 0
        #: one line per hit whose re-run changed something
        self.violations: list[str] = []

    def _world(self, frame) -> tuple:
        ptfs = tuple(
            (
                ptf.uid,
                ptf.resets,
                id(ptf.state),
                ptf.state.change_counter,
                ptf.summary_generation,
                len(ptf.params),
                len(ptf.initial_entries),
                tuple(sorted((p.uid, len(v)) for p, v in ptf.fnptr_domain.items())),
                tuple(sorted(ptf.recursive_deps.items())),
                ptf.is_recursive,
            )
            for _uid, ptf in sorted(self._ptf_by_uid.items())
        )
        lists = tuple(
            (name, tuple(p.uid for p in ptfs_)) for name, ptfs_ in sorted(self.ptfs.items())
        )
        stats = tuple(getattr(self.metrics, k) for k in _PTF_STATS)
        return ptfs, lists, stats, frozenset(frame.deferred)

    def _call_internal(self, frame, evaluator, node, name, multiple) -> None:
        metrics = self.metrics
        hits, misses = metrics.call_memo_hits, metrics.call_memo_misses
        super()._call_internal(frame, evaluator, node, name, multiple)
        # a hit runs nothing nested; a miss counts itself before it runs
        # (and may count nested hits while it analyzes the callee)
        if metrics.call_memo_hits == hits or metrics.call_memo_misses != misses:
            return
        self.checked += 1
        proc = self.program.procedures[name]
        before = self._world(frame)
        grown: list[str] = []
        original = MemoryBlock.register_pointer_location

        def spy(block, offset, stride):
            new = original(block, offset, stride)
            if new:
                grown.append(f"{block.name}+{offset}/{stride}")
            return new

        raised = frame.changed
        frame.changed = False
        MemoryBlock.register_pointer_location = spy
        try:
            map_ = self._record_actuals(frame, evaluator, node, proc)
            reused = self._dispatch_internal(
                frame, node, proc, map_, multiple, self._stack_frame(name)
            )
        finally:
            MemoryBlock.register_pointer_location = original
            changed = frame.changed
            frame.changed = raised or changed
        after = self._world(frame)
        problems = []
        if not reused:
            problems.append("no plain reuse (revisit or deferral)")
        if changed:
            problems.append("caller frame changed")
        if grown:
            problems.append(f"new pointer locations {sorted(grown)}")
        if before != after:
            problems.append("state or PTF set changed")
        if problems:
            self.violations.append(
                f"{frame.proc.name} PTF#{frame.ptf.uid} -> {name} at "
                f"{node.site}: {'; '.join(problems)}"
            )


def oracle_run(program, options: Optional[AnalyzerOptions] = None) -> MemoOracleAnalyzer:
    """Analyze ``program`` under the oracle.  For results comparable with
    another run in the same process, call
    :func:`repro.memory.pointsto.reset_interning` before loading the
    program, as for any analysis."""
    return MemoOracleAnalyzer(program, options).run()


def oracle_result(program, options: Optional[AnalyzerOptions] = None):
    """``(analyzer, AnalysisResult)`` of an oracle run."""
    analyzer = oracle_run(program, options)
    return analyzer, AnalysisResult(analyzer)
