"""Analysis diagnostics: counters, timers, traces, and provenance.

Three cooperating layers, all pay-for-what-you-use:

* :class:`Metrics` — hot-path counters and phase/procedure timers,
  threaded through the engine unconditionally (plain attribute ``+=``,
  no dict probes).  Surfaces as ``Analyzer.metrics``, ``--stats-json``
  and the bench harness columns.
* :class:`Tracer` — hierarchical span/event tracing of the driver
  phases, per-procedure evaluations, fixpoint passes and the
  interprocedural events, exported as Chrome trace-event JSON
  (Perfetto-loadable) or JSONL.  A ``--jobs`` batch traces only its
  parent: one ``parallel`` span with a dispatch and a done instant per
  program; workers run untraced.  Off (``None``) by default; instrument
  sites cost one ``is not None`` check when disabled.
* :class:`ProvenanceLog` — derivation records for points-to entries
  ("why does ``p`` point to ``x``?"), walked by the ``repro explain``
  CLI.  Also off by default.

The *serving* path has its own layer, :class:`TelemetryRegistry`
(:mod:`~repro.diagnostics.telemetry`): thread-safe counters, gauges and
log-bucketed latency histograms for the ``repro serve`` daemon
(``docs/OBSERVABILITY.md`` §5).

Plus :class:`FaultPlan`, the deterministic seeded fault-injection hook
that exercises the degradation ladder (``--inject-faults``; see
``docs/ROBUSTNESS.md``).

On top of the per-run layers sits the **regression observatory**
(:mod:`~repro.diagnostics.snapshot` / :mod:`~repro.diagnostics.diff`):
canonical, deterministic snapshots of what a run computed — the
points-to solution, its digest and the precision profile — and a semantic
differ that classifies drift between two snapshots into the closed
:data:`DRIFT_KINDS` vocabulary (``repro snapshot`` / ``repro diff``).

See ``docs/OBSERVABILITY.md`` for the walkthrough.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".metrics": ("Metrics",),
    ".trace": ("Tracer", "EVENT_VOCABULARY"),
    ".telemetry": ("Counter", "Gauge", "LogHistogram", "TelemetryRegistry"),
    ".provenance": ("ProvenanceLog", "Derivation"),
    ".faults": ("FaultPlan",),
    ".snapshot": (
        "SNAPSHOT_FORMAT",
        "build_snapshot",
        "canonical_bytes",
        "dump_snapshot",
        "load_snapshot",
        "write_snapshot",
    ),
    ".diff": (
        "DRIFT_KINDS",
        "DiffReport",
        "DriftRecord",
        "FailOn",
        "diff_snapshots",
        "parse_fail_on",
    ),
})
