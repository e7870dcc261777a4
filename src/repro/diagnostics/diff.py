"""Semantic diffing of analysis snapshots: the drift taxonomy.

Given two snapshots (:mod:`repro.diagnostics.snapshot`) of the *same*
program — two revisions, two option sets, two hosts — classify what the
analysis computed differently into a small, stable vocabulary:

==================  =====================================================
``bit-identical``    the whole-program digests match (the canonical
                     solutions are byte-identical)
``precision-loss``   a pointer gained possible targets, a procedure was
                     newly quarantined, or new degradation records
                     appeared — the new run knows *less*
``precision-gain``   the reverse: targets vanished, quarantines and
                     degradations cleared
``shape-change``     procedures/PTFs appeared or disappeared, PTF domains
                     moved, or the call graph changed — the two runs are
                     not comparing the same program shape (classified,
                     never failed on by default)
==================  =====================================================

Every precision record carries **per-procedure attribution** and, for
fact-level drift, the exact ``(location, target)`` fact that appeared or
vanished plus a ready-made ``repro explain VAR@PROC`` query — the bridge
into the provenance layer, which can then answer *why* the surviving run
derives that fact.  Facts come from each snapshot's ``solution``
section, so both snapshots must carry one.

Speed and memory are not compared here: they are host properties, which
``benchmarks/perf`` measures.

``--fail-on`` specs (CLI) are comma-separated kind names, e.g.
``precision-loss,shape-change``: the selected classes make ``repro
diff`` exit non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "DRIFT_KINDS",
    "DriftRecord",
    "DiffReport",
    "diff_snapshots",
    "FailOn",
    "parse_fail_on",
]

#: the closed drift vocabulary, in reporting order
DRIFT_KINDS = (
    "precision-loss",
    "precision-gain",
    "shape-change",
    "bit-identical",
)

#: at most this many fact-level records per procedure per direction
_MAX_FACTS_PER_PROC = 8


@dataclass
class DriftRecord:
    """One classified difference between two snapshots."""

    kind: str
    proc: str = ""
    detail: str = ""
    old: object = None
    new: object = None
    #: a ``repro explain`` query (``VAR@PROC``) that locates the drifted
    #: fact in the provenance layer, when one could be derived
    explain: str = ""

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "proc": self.proc, "detail": self.detail}
        if self.old is not None:
            out["old"] = self.old
        if self.new is not None:
            out["new"] = self.new
        if self.explain:
            out["explain"] = self.explain
        return out

    def render(self) -> str:
        out = self.kind
        if self.proc:
            out += f" proc={self.proc}"
        if self.detail:
            out += f": {self.detail}"
        if self.explain:
            out += f"   [repro explain FILE --query {self.explain}]"
        return out


class DiffReport:
    """The classified outcome of one snapshot comparison."""

    def __init__(self, old_program: str, new_program: str) -> None:
        self.old_program = old_program
        self.new_program = new_program
        self.records: list[DriftRecord] = []

    def add(self, kind: str, **kwargs) -> DriftRecord:
        assert kind in DRIFT_KINDS, kind
        rec = DriftRecord(kind, **kwargs)
        self.records.append(rec)
        return rec

    def classes(self) -> set[str]:
        return {r.kind for r in self.records}

    @property
    def identical(self) -> bool:
        return self.classes() <= {"bit-identical"}

    def failed(self, fail_on: "FailOn") -> set[str]:
        """The failing drift classes actually present in this report."""
        return self.classes() & fail_on.kinds

    def as_dict(self) -> dict:
        ordered = sorted(
            self.records, key=lambda r: (DRIFT_KINDS.index(r.kind), r.proc)
        )
        return {
            "old_program": self.old_program,
            "new_program": self.new_program,
            "classes": sorted(self.classes()),
            "identical": self.identical,
            "records": [r.as_dict() for r in ordered],
        }

    def summary_lines(self) -> list[str]:
        if not self.records:
            return ["no drift detected"]
        ordered = sorted(
            self.records, key=lambda r: (DRIFT_KINDS.index(r.kind), r.proc)
        )
        return [r.render() for r in ordered]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DiffReport classes={sorted(self.classes())} n={len(self.records)}>"


# ---------------------------------------------------------------------------
# --fail-on parsing
# ---------------------------------------------------------------------------


@dataclass
class FailOn:
    """Parsed ``--fail-on`` spec: the drift classes that fail."""

    kinds: set = field(default_factory=set)


def parse_fail_on(spec: Optional[str]) -> FailOn:
    """``precision-loss,shape-change`` → :class:`FailOn`.

    Unknown kinds raise ``ValueError`` (catching typos like
    ``precison-loss`` beats silently never failing)."""
    out = FailOn()
    if not spec:
        return out
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part not in DRIFT_KINDS:
            raise ValueError(
                f"unknown --fail-on class: {part!r} "
                f"(expected one of {', '.join(DRIFT_KINDS)})"
            )
        out.kinds.add(part)
    return out


# ---------------------------------------------------------------------------
# fact extraction + attribution helpers
# ---------------------------------------------------------------------------


def _facts_of(payloads: list) -> set[tuple[str, str]]:
    """All ``(location, target)`` facts across a procedure's PTFs, merged.

    Comparing the merged relation (rather than PTF-by-PTF) keeps the diff
    stable under pure PTF-boundary reshuffles: splitting one summary into
    two with the same union of facts is not precision drift."""
    facts: set[tuple[str, str]] = set()
    for payload in payloads:
        for loc, targets in payload.get("final", {}).items():
            for t in targets:
                facts.add((loc, t))
    return facts


def _explain_query(loc: str, proc: str) -> str:
    """Derive a ``VAR@PROC`` provenance query from a canonical location
    string like ``(main::p, 0)`` — empty when the location is not a named
    source variable (heap blocks, extended parameters, strides)."""
    if not loc.startswith("(") or "," not in loc:
        return ""
    name = loc[1:].split(",", 1)[0].strip()
    if "::" in name:
        owner, _, var = name.rpartition("::")
        owner = owner.split("::")[-1]
        if var.isidentifier():
            return f"{var}@{owner}" if owner != proc else f"{var}@{proc}"
        return ""
    if name.isidentifier():  # a global, queried from the procedure
        return f"{name}@{proc}"
    return ""


def _fact_records(
    report: DiffReport,
    kind: str,
    proc: str,
    facts: set[tuple[str, str]],
    verb: str,
) -> None:
    ordered = sorted(facts)
    for loc, target in ordered[:_MAX_FACTS_PER_PROC]:
        report.add(
            kind,
            proc=proc,
            detail=f"{loc} -> {target} {verb}",
            explain=_explain_query(loc, proc),
        )
    if len(ordered) > _MAX_FACTS_PER_PROC:
        report.add(
            kind,
            proc=proc,
            detail=(
                f"... and {len(ordered) - _MAX_FACTS_PER_PROC} more facts {verb}"
            ),
        )


# ---------------------------------------------------------------------------
# the differ
# ---------------------------------------------------------------------------


def diff_snapshots(old: dict, new: dict) -> DiffReport:
    """Classify the drift between two snapshots of the same program."""
    report = DiffReport(old.get("program", "?"), new.get("program", "?"))
    for snap, which in ((old, "old"), (new, "new")):
        if snap.get("format") != old.get("format") or "digest" not in snap:
            raise ValueError(f"{which} snapshot is not a valid repro snapshot")
        if "solution" not in snap:
            raise ValueError(
                f"{which} snapshot carries no solution; "
                "re-run `repro snapshot` to record one"
            )

    identical = old["digest"]["program"] == new["digest"]["program"]
    if identical:
        report.add(
            "bit-identical",
            detail=f"program digest {new['digest']['program'][:12]}… unchanged",
        )
    else:
        _diff_precision(report, old, new)
    _diff_degradation(report, old, new)
    return report


def _diff_precision(report: DiffReport, old: dict, new: dict) -> None:
    old_digests = old["digest"]["procedures"]
    new_digests = new["digest"]["procedures"]
    old_sol = old["solution"]
    new_sol = new["solution"]
    old_prec = old.get("precision", {}).get("procedures", {})
    new_prec = new.get("precision", {}).get("procedures", {})

    for proc in sorted(set(old_digests) | set(new_digests)):
        in_old = proc in old_digests
        in_new = proc in new_digests
        if in_old != in_new:
            report.add(
                "shape-change",
                proc=proc,
                detail="procedure only in " + ("old" if in_old else "new") + " snapshot",
            )
            continue
        if old_digests[proc] == new_digests[proc]:
            continue
        o = old_prec.get(proc, {})
        n = new_prec.get(proc, {})
        if o.get("ptfs") != n.get("ptfs"):
            report.add(
                "shape-change",
                proc=proc,
                detail=f"PTF count {o.get('ptfs')} -> {n.get('ptfs')}",
                old=o.get("ptfs"),
                new=n.get("ptfs"),
            )
        old_facts = _facts_of(old_sol.get(proc, []))
        new_facts = _facts_of(new_sol.get(proc, []))
        gained = new_facts - old_facts
        lost = old_facts - new_facts
        if gained:
            _fact_records(report, "precision-loss", proc, gained, "appeared")
        if lost:
            _fact_records(report, "precision-gain", proc, lost, "vanished")
        if not gained and not lost:
            # digest moved but the merged fact relation did not:
            # initial domains / fnptr domains / PTF packaging shifted
            report.add(
                "shape-change",
                proc=proc,
                detail="PTF domains changed (merged facts identical)",
            )
    if old.get("call_graph") != new.get("call_graph"):
        changed = [
            caller
            for caller in sorted(
                set(old.get("call_graph", {})) | set(new.get("call_graph", {}))
            )
            if old.get("call_graph", {}).get(caller)
            != new.get("call_graph", {}).get(caller)
        ]
        report.add(
            "shape-change",
            detail=f"call graph changed for: {', '.join(changed)}",
        )


def _diff_degradation(report: DiffReport, old: dict, new: dict) -> None:
    o = old.get("degradation", {})
    n = new.get("degradation", {})
    o_quar = set(o.get("quarantined", ()))
    n_quar = set(n.get("quarantined", ()))
    for proc in sorted(n_quar - o_quar):
        report.add(
            "precision-loss",
            proc=proc,
            detail="procedure newly quarantined (conservative havoc summary)",
        )
    for proc in sorted(o_quar - n_quar):
        report.add(
            "precision-gain",
            proc=proc,
            detail="procedure no longer quarantined",
        )
    o_count = len(o.get("records", ())) + len(o.get("frontend", ()))
    n_count = len(n.get("records", ())) + len(n.get("frontend", ()))
    if n_count > o_count:
        report.add(
            "precision-loss",
            detail=f"degradation records {o_count} -> {n_count}",
            old=o_count,
            new=n_count,
        )
    elif o_count > n_count:
        report.add(
            "precision-gain",
            detail=f"degradation records {o_count} -> {n_count}",
            old=o_count,
            new=n_count,
        )
