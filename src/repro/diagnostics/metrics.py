"""Counters and timers for the analysis engine.

One :class:`Metrics` instance is owned by the
:class:`~repro.analysis.engine.Analyzer` and shared by every points-to
state it creates, so the counters aggregate across all PTFs of a run.

Counter semantics:

* ``lookups`` — calls to the public ``lookup``/``lookup_overlapping`` of
  any points-to state;
* ``cache_hits`` / ``cache_misses`` — probes of the sparse state's
  ``lookup_overlapping`` memo;
* ``dom_walk_steps`` — indexed def nodes examined by the sparse
  representation's interval scans for the nearest dominating def or
  strong-update fence (the work that replaces the paper's §4.2 dominator
  walk);
* ``phi_insertions`` — φ-functions inserted at iterated dominance
  frontiers (§4.2, Figure 9);
* ``strong_updates`` / ``weak_updates`` — assignments recorded by kind
  (§4.1);
* ``initial_fetches`` — lazy initial-value fetches that added an entry to
  a PTF's input domain (§3.2);
* ``eval_passes`` — full reverse-postorder passes executed by
  ``ProcEvaluator.run``;
* ``guard_trips`` — resource guards that fired (deadline, pass budget,
  call depth, PTF cap, state-entry cap, injected faults);
* ``degraded_calls`` — call sites summarized by the conservative havoc
  stub instead of a real PTF (the degradation ladder's fallback);
* ``ptf_generalizations`` — contexts force-merged into a procedure's
  first PTF because ``ptf_limit`` (or the total-PTF budget) was reached
  (§8's generalization fallback);
* ``call_memo_hits`` / ``call_memo_misses`` — internal call dispatches
  skipped because nothing their last dispatch read had changed, and those
  that ran (the call-site memo of the interprocedural layer).
* ``ptf_created`` / ``ptf_reuses`` — PTFs created at call sites, and
  call sites whose input aliases matched an existing PTF (§5);
* ``ptf_home_updates`` — PTFs reset in place because their own call
  site brought new inputs mid-iteration;
* ``ptf_analyses`` — completed procedure-body analyses under some PTF;
* ``recursive_calls`` — calls into a procedure already on the analysis
  stack, which reuse the PTF on the stack (§5.4);
* ``libc_calls`` / ``external_calls`` — calls handled by a libc summary,
  and calls to other procedures with no body.

Timers: ``phase_seconds`` buckets the top-level driver phases
(``finalize`` / ``analysis`` / ``summary``); ``proc_seconds`` buckets
*inclusive* per-procedure evaluation time (a caller's bucket includes the
time spent analyzing its callees at its call nodes), and
``proc_self_seconds`` the *exclusive* complement (inclusive minus the
time spent in nested callee evaluations) so per-procedure hotspots are
not all attributed to ``main``.  ``as_dict`` additionally derives
``dom_steps_per_lookup`` — the average number of index entries the
interval scans examine per public lookup.

This is the **counter vocabulary**; the companion **event vocabulary**
(the span/instant names the optional tracer emits — driver phases,
``eval``/``pass`` spans, ``ptf.create``/``ptf.reuse``/``ptf.miss``,
``apply_summary``, ``initial_fetch``, …) is documented in
:data:`repro.diagnostics.trace.EVENT_VOCABULARY` next to the tracer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

from ..ratio import safe_ratio

__all__ = ["Metrics"]

#: counter attribute names, in reporting order
COUNTERS = (
    "lookups",
    "cache_hits",
    "cache_misses",
    "dom_walk_steps",
    "phi_insertions",
    "strong_updates",
    "weak_updates",
    "initial_fetches",
    "eval_passes",
    "guard_trips",
    "degraded_calls",
    "ptf_generalizations",
    "call_memo_hits",
    "call_memo_misses",
    "ptf_created",
    "ptf_reuses",
    "ptf_home_updates",
    "ptf_analyses",
    "recursive_calls",
    "external_calls",
    "libc_calls",
)


class Metrics:
    """Mutable bag of analysis counters and timers.

    The hot-path contract is that incrementing a counter is a plain
    attribute ``+=`` on this object — no dict probes, no method calls —
    so the instrumentation itself stays off the profile.
    """

    __slots__ = COUNTERS + (
        "phase_seconds",
        "proc_seconds",
        "proc_self_seconds",
        "proc_passes",
        "proc_generalizations",
        "_proc_stack",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in COUNTERS:
            setattr(self, name, 0)
        #: phase name -> accumulated seconds
        self.phase_seconds: dict[str, float] = {}
        #: procedure name -> accumulated (inclusive) evaluation seconds
        self.proc_seconds: dict[str, float] = {}
        #: procedure name -> accumulated *exclusive* seconds (inclusive
        #: minus time spent in callee evaluations nested within)
        self.proc_self_seconds: dict[str, float] = {}
        #: procedure name -> accumulated evaluation passes
        self.proc_passes: dict[str, int] = {}
        #: procedure name -> contexts force-merged into its first PTF (the
        #: per-procedure split of the ``ptf_generalizations`` counter; the
        #: snapshot layer's precision profile attributes §8 generalization
        #: pressure with it)
        self.proc_generalizations: dict[str, int] = {}
        #: live evaluation stack: [name, start, child_seconds] frames,
        #: maintained by start_proc/end_proc to split self vs callee time
        self._proc_stack: list[list] = []

    # -- timers -----------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a top-level driver phase (accumulating on re-entry)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + time.perf_counter() - start
            )

    def add_proc_time(
        self,
        proc_name: str,
        seconds: float,
        passes: int = 0,
        self_seconds: Optional[float] = None,
    ) -> None:
        """Accumulate evaluation time for one procedure.

        ``seconds`` is inclusive; ``self_seconds`` is the exclusive share
        (defaults to ``seconds`` when the caller tracked no nesting).
        """
        self.proc_seconds[proc_name] = self.proc_seconds.get(proc_name, 0.0) + seconds
        self.proc_self_seconds[proc_name] = self.proc_self_seconds.get(
            proc_name, 0.0
        ) + (seconds if self_seconds is None else self_seconds)
        if passes:
            self.proc_passes[proc_name] = self.proc_passes.get(proc_name, 0) + passes

    def start_proc(self, proc_name: str) -> None:
        """Open a (possibly nested) procedure-evaluation timer frame."""
        self._proc_stack.append([proc_name, time.perf_counter(), 0.0])

    def end_proc(self, passes: int = 0) -> float:
        """Close the innermost frame; attributes inclusive time to the
        procedure, exclusive time (inclusive minus nested frames) to its
        self bucket, and charges the elapsed time to the parent frame's
        child accumulator.  Returns the inclusive seconds."""
        name, start, child = self._proc_stack.pop()
        elapsed = time.perf_counter() - start
        self.add_proc_time(
            name, elapsed, passes, self_seconds=max(elapsed - child, 0.0)
        )
        if self._proc_stack:
            self._proc_stack[-1][2] += elapsed
        return elapsed

    def note_generalization(self, proc_name: str) -> None:
        """Count one §8 force-merge, both globally and per procedure."""
        self.ptf_generalizations += 1
        self.proc_generalizations[proc_name] = (
            self.proc_generalizations.get(proc_name, 0) + 1
        )

    # -- export -----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in COUNTERS}

    def as_dict(self) -> dict:
        """JSON-serializable snapshot of every counter and timer.

        The derived ratios are emitted as ``null`` when their denominator
        is zero (an empty or fully degraded run performed no lookups /
        never probed a cache); :func:`safe_ratio` is the one shared guard
        — see its docstring for why ``null``, not ``0.0``.
        """
        hit_rate = safe_ratio(self.cache_hits, self.cache_hits + self.cache_misses)
        steps_per_lookup = safe_ratio(self.dom_walk_steps, self.lookups)
        return {
            "counters": self.counters(),
            "derived": {
                "dom_steps_per_lookup": steps_per_lookup,
                "cache_hit_rate": hit_rate,
            },
            "timers": {
                "phases": {k: round(v, 6) for k, v in sorted(self.phase_seconds.items())},
                "procedures": {
                    k: round(v, 6) for k, v in sorted(self.proc_seconds.items())
                },
                "procedures_self": {
                    k: round(v, 6)
                    for k, v in sorted(self.proc_self_seconds.items())
                },
                "procedure_passes": dict(sorted(self.proc_passes.items())),
                "procedure_generalizations": dict(
                    sorted(self.proc_generalizations.items())
                ),
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        c = self.counters()
        parts = ", ".join(f"{k}={v}" for k, v in c.items() if v)
        return f"<Metrics {parts or 'empty'}>"
