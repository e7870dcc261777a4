"""Hierarchical span/event tracer for the analysis engine.

One :class:`Tracer` is (optionally) owned by the
:class:`~repro.analysis.engine.Analyzer` and threaded past every layer
that already receives the :class:`~repro.diagnostics.metrics.Metrics`
sink.  Where the metrics layer answers *how much* the engine works, the
tracer answers *where* and *why*: which call chain forced a second PTF
for a procedure, which fixpoint pass invalidated a summary, which
summary application wrote a points-to edge.

Hot-path contract
-----------------

Tracing follows the same discipline as ``Metrics``: instrument sites in
the engine hold the tracer in a local (``tr = self.trace``) and guard
every emission with ``if tr is not None`` — when tracing is disabled the
whole subsystem costs one attribute load and one identity compare per
site, no dict probes, no method calls.  The engine never constructs a
tracer unless ``AnalyzerOptions.trace`` is set.

Event model
-----------

Events map 1:1 onto the Chrome trace-event format (the JSON Perfetto and
``chrome://tracing`` load):

* **spans** — hierarchical begin/end pairs (``ph: "B"`` / ``"E"``) that
  nest by emission order on one thread.  Used for the driver phases and
  per-procedure evaluations (``ProcEvaluator.run``).
* **complete events** — a single record with a duration (``ph: "X"``).
  Used for individual fixpoint passes, which are too numerous for B/E
  pairs to stay readable.
* **instants** — zero-duration marks (``ph: "i"``).  Used for the
  interprocedural events (PTF create/reuse/miss, summary application,
  recursive-dep invalidation, external calls) and initial-value fetches.

Every event carries a process id, a thread id, a microsecond timestamp
measured from a monotonic clock (``time.perf_counter_ns``), and a unique
monotonically increasing event id (``args.eid``).  The provenance layer
(:mod:`repro.diagnostics.provenance`) tags each points-to derivation
with the most recent event id, linking derivations back into the trace.

Event vocabulary
----------------

See :data:`EVENT_VOCABULARY` below; the counter vocabulary lives in
:mod:`repro.diagnostics.metrics`.

Exporters
---------

* :meth:`Tracer.write_chrome` — Chrome trace-event JSON
  (``{"traceEvents": [...]}``), sorted by timestamp so the file is
  monotone; loadable in Perfetto (https://ui.perfetto.dev) and
  ``chrome://tracing``.
* :meth:`Tracer.write_jsonl` — one JSON object per line, in emission
  order, for ``grep``/``jq`` pipelines and the bench harness artifacts.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import IO, Iterator

__all__ = ["Tracer", "EVENT_VOCABULARY"]

#: every event name the engine emits, with its phase type and meaning;
#: this is the span/event vocabulary, the companion of the counter
#: vocabulary documented in :mod:`repro.diagnostics.metrics`.
EVENT_VOCABULARY: dict[str, str] = {
    # -- spans (ph B/E) --------------------------------------------------
    "analyze": "B/E driver: one whole Analyzer.run, args: program",
    "finalize": "B/E driver phase: CFG/dominator finalization",
    "analysis": "B/E driver phase: the interprocedural fixpoint from main",
    "summary": "B/E driver phase: extracting main's final summary",
    "eval": "B/E one ProcEvaluator.run of a procedure under one PTF; "
            "args: proc, ptf; closing args: passes",
    "analyze_ptf": "B/E (re)analysis of a callee PTF from a call site; "
                   "args: proc, ptf, site",
    # -- complete events (ph X) ------------------------------------------
    "pass": "X one full reverse-postorder fixpoint pass; "
            "args: proc, index, changed",
    # -- instants (ph i) -------------------------------------------------
    "ptf.create": "i GetPTF made a new PTF (no candidate matched); "
                  "args: proc, ptf, pattern (of the requesting context)",
    "ptf.reuse": "i GetPTF matched an existing PTF; args: proc, ptf, "
                 "pattern (the matched alias pattern), revisit",
    "ptf.miss": "i GetPTF found no matching candidate among >=1 existing "
                "PTFs; args: proc, candidates, pattern",
    "ptf.home_update": "i same call site re-bound mid-iteration: PTF "
                       "reset in place; args: proc, ptf",
    "ptf.generalize": "i ptf_limit hit: context merged into the first "
                      "PTF (§8); args: proc, ptf",
    "ptf.invalidate": "i a consumed recursive summary grew: PTF must be "
                      "revisited; args: proc, ptf",
    "apply_summary": "i a callee summary translated into the caller; "
                     "args: proc, ptf, entries, site",
    "recursive_call": "i call to a procedure already on the stack (§5.4); "
                      "args: proc",
    "external_call": "i call to an unknown external function; args: name, "
                     "policy",
    "initial_fetch": "i lazy initial-value fetch added an input entry to "
                     "a PTF (§3.2); args: proc, loc",
    "degrade.call": "i a call site was summarized by the conservative "
                    "havoc stub instead of a real PTF (degradation "
                    "ladder); args: proc, reason, call_site, pool",
    "degrade.proc": "i a procedure was quarantined — its partial PTF "
                    "discarded — after a resource guard tripped; args: "
                    "proc, reason, detail",
    "degrade.frontend": "i a translation unit or single procedure was "
                        "dropped by the tolerant frontend; args: file, "
                        "proc, reason",
    # -- parallel driver (repro.analysis.parallel; docs/PARALLEL.md) -----
    "parallel": "B/E driver: one whole parallel batch "
                "(repro analyze --jobs N); args: jobs, tasks; closing "
                "args: tasks (merged)",
    "shard.dispatch": "i a batch task was handed to the worker pool; "
                      "args: task, index",
    "shard.done": "i a batch task's result bundle was merged (task "
                  "order, not completion order); args: task, index, "
                  "seconds, error",
    # -- query subsystem (repro.query; docs/QUERY.md) --------------------
    "query.hit": "i a demand query was answered from the engine's LRU "
                 "cache; args: op, key",
    "query.miss": "i a demand query was computed against the store (and "
                  "cached); args: op, key",
    "query.deadline": "i a query's per-request deadline expired before "
                      "an answer was produced; args: op, key",
    # -- demand mode (repro.analysis.demand; docs/QUERY.md §6) -----------
    "demand.analyze": "i the demand tier analyzed the edited sources "
                      "and built their store in memory (one per source "
                      "generation, shared by every routed query); args: "
                      "procs, seconds",
    "demand.stale": "i the staleness probe re-lowered edited sources "
                    "and diffed IR digests against the store; args: "
                    "stale, changed, added, removed, globals_changed",
    "demand.fallback": "i a query was answered from the demand "
                       "tier's fresh index because the store is stale "
                       "for the fact it states; args: op, proc",
    # -- serve daemon (repro.query.server; docs/OBSERVABILITY.md §5) -----
    "server.request": "i the daemon finalized one request: envelope "
                      "written, latency measured line-read to "
                      "envelope-write; args: op, status, ms, rid",
    "server.slow": "i a finalized request exceeded the slow-request "
                   "threshold (QueryServer.slow_ms); args: op, ms, rid",
    "server.shed": "i a request was shed by overload protection with "
                   "the stable `overloaded` error code; args: reason "
                   "(rate | in_flight), rid",
    "server.reload": "i a hot store swap attempt resolved (ok=True: new "
                     "generation promoted; ok=False: target rejected, "
                     "old store keeps serving); args: ok, generation, "
                     "stale, carried",
    "server.idle_timeout": "i an accepted connection sat idle past the "
                           "read timeout and released its handler "
                           "thread; args: peer",
}


class Tracer:
    """Collects trace events in memory; export at end of run.

    The tracer is deliberately dumb and fast: every emitter appends one
    small dict to a list.  Timestamps are microseconds from the tracer's
    creation (monotonic).  ``pid``/``tid`` are constant — the analysis is
    single-threaded — but recorded per event because the Chrome format
    requires them.
    """

    def __init__(self) -> None:
        self._t0 = time.perf_counter_ns()
        self.events: list[dict] = []
        self.pid = os.getpid()
        self.tid = 1
        #: monotonically increasing id of the last emitted event; the
        #: provenance layer reads this to link derivations to the trace
        self.last_eid = 0

    # -- clock ------------------------------------------------------------

    def now_us(self) -> float:
        """Microseconds since tracer creation (monotonic)."""
        return (time.perf_counter_ns() - self._t0) / 1000.0

    # -- emitters ---------------------------------------------------------

    def _emit(self, ph: str, name: str, cat: str, ts: float, args: dict) -> int:
        self.last_eid += 1
        args["eid"] = self.last_eid
        event = {
            "name": name,
            "cat": cat,
            "ph": ph,
            "ts": ts,
            "pid": self.pid,
            "tid": self.tid,
            "args": args,
        }
        self.events.append(event)
        return self.last_eid

    def begin(self, name: str, cat: str = "", **args) -> int:
        """Open a span (``ph: "B"``); close with :meth:`end`."""
        return self._emit("B", name, cat, self.now_us(), args)

    def end(self, name: str, cat: str = "", **args) -> int:
        """Close the innermost span opened with ``name`` (``ph: "E"``)."""
        return self._emit("E", name, cat, self.now_us(), args)

    @contextmanager
    def span(self, name: str, cat: str = "", **args) -> Iterator[int]:
        """``with``-style B/E span; yields the begin event's id."""
        eid = self.begin(name, cat, **args)
        try:
            yield eid
        finally:
            self.end(name, cat)

    def complete(
        self, name: str, cat: str, start_us: float, dur_us: float, **args
    ) -> int:
        """A complete event (``ph: "X"``) with explicit start + duration."""
        self.last_eid += 1
        args["eid"] = self.last_eid
        self.events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": start_us,
                "dur": max(dur_us, 0.0),
                "pid": self.pid,
                "tid": self.tid,
                "args": args,
            }
        )
        return self.last_eid

    def instant(self, name: str, cat: str = "", **args) -> int:
        """A zero-duration mark (``ph: "i"``, thread scope)."""
        self.last_eid += 1
        args["eid"] = self.last_eid
        self.events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": "t",
                "ts": self.now_us(),
                "pid": self.pid,
                "tid": self.tid,
                "args": args,
            }
        )
        return self.last_eid

    # -- export -----------------------------------------------------------

    def chrome_dict(self, **metadata) -> dict:
        """The Chrome trace-event JSON object (Perfetto-loadable).

        Events are sorted by timestamp (stable, so nested B/E pairs with
        equal timestamps keep their emission order) — the exported file
        is monotone even though ``X`` events are recorded at completion
        time with their *start* timestamp.
        """
        events = sorted(self.events, key=lambda e: e["ts"])
        out = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
        }
        if metadata:
            out["otherData"] = {k: str(v) for k, v in metadata.items()}
        return out

    def write_chrome(self, fh: IO[str], **metadata) -> None:
        json.dump(self.chrome_dict(**metadata), fh, indent=None)
        fh.write("\n")

    def write_jsonl(self, fh: IO[str]) -> None:
        """One event per line, in emission order (grep/jq friendly)."""
        for event in self.events:
            fh.write(json.dumps(event, sort_keys=True))
            fh.write("\n")

    def save_chrome(self, path: str, **metadata) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            self.write_chrome(fh, **metadata)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Tracer {len(self.events)} events, last_eid={self.last_eid}>"

