"""Canonical, deterministic snapshots of an analysis run.

The paper's claims are quantitative — Table 2's "≈ 1 PTF per procedure",
Table 3's alias precision — and the repo's earlier diagnostics layers
(metrics, traces, provenance) all describe a *single* run.  A snapshot is
the missing comparison unit: a JSON document that pins down *what the
analysis computed* in a form two runs, two revisions, or two option sets
can be diffed against (:mod:`repro.diagnostics.diff`).

A snapshot is a pure function of the program and the options: two
runs of the same program under the same options write the same bytes,
regardless of host speed or wall time.  Its sections:

* ``solution`` — the name-space-normalized points-to solution: per
  procedure, the list of PTF payloads (normalized initial entries, the
  final points-to function at exit, the function-pointer domain), each
  entry rendered through the stable ``str`` form of location sets and
  **sorted** at every level (entries by key, values lexicographically,
  PTFs by their canonical serialization — so the digest does not depend
  on dict iteration or PTF creation order);
* ``digest`` — one SHA-256 per procedure over its canonical PTF payload
  list, plus a whole-program hash folding the per-procedure digests and
  the resolved call graph;
* ``precision`` — per procedure the PTF count, the number of points-to
  facts, the average pointees per pointer (Table 2/3's precision proxy)
  and the §8 generalization count; totals including the degradation
  record count;
* ``call_graph`` and the sanitized ``degradation`` account (records,
  quarantines, reasons — *not* the budget's elapsed seconds);
* ``options`` — the non-default scalar :class:`AnalyzerOptions` fields
  (:func:`repro.analysis.engine.options_payload`), recorded for
  provenance but left out of :func:`canonical_bytes`, so
  semantics-equivalent option sets compare equal.

Timers, counters and memory gauges are not part of a snapshot: they
describe the host, not the result (``--stats-json`` reports them for one
run, ``benchmarks/perf`` records and compares them).  Snapshots written
by older versions carry a ``volatile`` section of such numbers;
:func:`load_snapshot` drops it.

Determinism caveat: block uids seed set-iteration order inside the
engine, so two analyses in the *same process* only produce identical
solutions if :func:`repro.memory.pointsto.reset_interning` ran before
each (exactly as the memoized-vs-uncached equivalence tests do).  Separate
processes — the CLI's ``repro snapshot`` — are always comparable.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import IO, TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular
    # import: analysis.engine itself imports the diagnostics package)
    from ..analysis.engine import AnalyzerOptions
    from ..analysis.results import AnalysisResult

__all__ = [
    "SNAPSHOT_FORMAT",
    "build_snapshot",
    "solution_of",
    "canonical_bytes",
    "dump_snapshot",
    "write_snapshot",
    "load_snapshot",
]

#: bumped whenever the canonical layout changes incompatibly; the differ
#: refuses to compare snapshots of different formats
SNAPSHOT_FORMAT = "repro-snapshot/1"


# ---------------------------------------------------------------------------
# canonical solution extraction
# ---------------------------------------------------------------------------


def _ptf_payload(ptf) -> dict:
    """One PTF rendered canonically: normalized initial entries, the final
    points-to function, and the function-pointer domain, all sorted."""
    initial = []
    for raw in ptf.initial_entries:
        entry = raw.normalized()
        initial.append(
            {
                "source": str(entry.source),
                "targets": sorted(str(t) for t in entry.targets),
            }
        )
    initial.sort(key=lambda e: (e["source"], e["targets"]))
    final = {
        str(loc): sorted(str(v) for v in vals)
        for loc, vals in ptf.summary().items()
    }
    payload = {"initial": initial, "final": final}
    fnptr: dict[str, set] = {}
    for param, names in ptf.fnptr_domain.items():
        if not names:
            continue  # None = unresolvable; nothing stable to record
        fnptr.setdefault(param.representative().name, set()).update(names)
    if fnptr:
        payload["fnptr"] = {k: sorted(fnptr[k]) for k in sorted(fnptr)}
    return payload


def solution_of(result: "AnalysisResult") -> dict:
    """The canonical per-procedure solution: procedure name → sorted list
    of PTF payloads.  Every level is sorted, so the output is independent
    of dict iteration order and of the order contexts were discovered."""
    out: dict[str, list] = {}
    for name in sorted(result.program.procedures):
        payloads = [_ptf_payload(ptf) for ptf in result.ptfs_of(name)]
        payloads.sort(key=lambda p: json.dumps(p, sort_keys=True))
        out[name] = payloads
    return out


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _digest(solution: dict, call_graph: dict) -> dict:
    per_proc = {name: _sha(ptfs) for name, ptfs in solution.items()}
    program = _sha({"procedures": per_proc, "call_graph": call_graph})
    return {"program": program, "procedures": per_proc}


# ---------------------------------------------------------------------------
# precision profile + degradation account
# ---------------------------------------------------------------------------


def _precision_profile(result: "AnalysisResult", solution: dict) -> dict:
    metrics = result.analyzer.metrics
    report = result.degradation
    degraded_procs = set(report.quarantined) | {r.proc for r in report.records}
    procedures: dict[str, dict] = {}
    total_facts = 0
    total_entries = 0
    total_ptfs = 0
    for name, payloads in solution.items():
        facts = 0
        entries = 0
        for payload in payloads:
            for values in payload["final"].values():
                entries += 1
                facts += len(values)
        total_facts += facts
        total_entries += entries
        total_ptfs += len(payloads)
        rec = {
            "ptfs": len(payloads),
            "facts": facts,
            "avg_pointees": round(facts / entries, 4) if entries else None,
        }
        gen = metrics.proc_generalizations.get(name, 0)
        if gen:
            rec["generalizations"] = gen
        if name in degraded_procs:
            rec["degraded"] = True
        procedures[name] = rec
    counts = [len(p) for p in solution.values() if p]
    return {
        "procedures": procedures,
        "totals": {
            "procedures": len(solution),
            "analyzed": len(counts),
            "total_ptfs": total_ptfs,
            "avg_ptfs": round(sum(counts) / len(counts), 4) if counts else None,
            "max_ptfs": max(counts) if counts else 0,
            "facts": total_facts,
            "avg_pointees": (
                round(total_facts / total_entries, 4) if total_entries else None
            ),
            "generalizations": metrics.ptf_generalizations,
            "degraded_records": len(report.records) + len(report.frontend),
            "quarantined": sorted(report.quarantined),
        },
    }


def _sanitized_degradation(report) -> dict:
    """The degradation account without the budget's wall-clock fields —
    everything in a snapshot must be deterministic."""
    return {
        "ok": report.ok,
        "partial": report.partial,
        "quarantined": sorted(report.quarantined),
        "records": [r.as_dict() for r in report.records],
        "frontend": [f.as_dict() for f in report.frontend],
        "reasons": report.reasons(),
    }


# ---------------------------------------------------------------------------
# snapshot assembly + I/O
# ---------------------------------------------------------------------------


def build_snapshot(
    result: "AnalysisResult",
    options: Optional["AnalyzerOptions"] = None,
    program_name: Optional[str] = None,
) -> dict:
    """Assemble the snapshot document for a finished analysis.

    ``options`` defaults to the analyzer's own options."""
    from ..analysis.engine import options_payload

    if options is None:
        options = result.analyzer.options
    solution = solution_of(result)
    call_graph = {
        caller: sorted(callees)
        for caller, callees in sorted(result.call_graph().items())
    }
    return {
        "format": SNAPSHOT_FORMAT,
        "program": program_name or result.program.name,
        "options": options_payload(options),
        "digest": _digest(solution, call_graph),
        "precision": _precision_profile(result, solution),
        "call_graph": call_graph,
        "degradation": _sanitized_degradation(result.degradation),
        "solution": solution,
    }


def canonical_bytes(snap: dict) -> bytes:
    """A snapshot without its ``options`` record, serialized as
    sorted-key compact JSON — two runs of the same program under
    semantics-equivalent options produce byte-identical output (this is
    what the determinism tests compare)."""
    stable = {k: v for k, v in snap.items() if k != "options"}
    return json.dumps(stable, sort_keys=True, separators=(",", ":")).encode("utf-8")


def dump_snapshot(snap: dict) -> str:
    """Pretty, sorted serialization for files (trailing newline)."""
    return json.dumps(snap, indent=2, sort_keys=True) + "\n"


def write_snapshot(snap: dict, dest: Union[str, IO] = "-") -> None:
    """Write ``snap`` to a path, ``-`` (stdout), or an open file object."""
    payload = dump_snapshot(snap)
    if dest == "-":
        sys.stdout.write(payload)
    elif hasattr(dest, "write"):
        dest.write(payload)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(payload)


def load_snapshot(source: Union[str, IO]) -> dict:
    """Read a snapshot from a path, ``-`` (stdin), or an open file object;
    validates the format tag and drops the ``volatile`` section that
    older versions wrote."""
    if source == "-":
        snap = json.load(sys.stdin)
    elif hasattr(source, "read"):
        snap = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            snap = json.load(fh)
    fmt = snap.get("format")
    if fmt != SNAPSHOT_FORMAT:
        raise ValueError(
            f"unsupported snapshot format {fmt!r} (expected {SNAPSHOT_FORMAT!r})"
        )
    snap.pop("volatile", None)
    return snap
