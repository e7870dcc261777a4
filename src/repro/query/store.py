"""The on-disk analysis store — analyze once, answer many queries.

Every earlier layer of this repo answers questions about *one run in one
process*: the engine computes, the snapshot pins down what it computed,
and then the process exits and the next question re-runs the whole
analysis from source.  The store is the persistence layer that breaks
that cycle (``repro index`` writes it, ``repro query`` / ``repro
serve`` read it): a single JSON document from which the demand engine
(:mod:`repro.query.engine`) answers points-to, alias, MOD/REF,
pointed-by and call-graph reachability queries **without re-running the
analysis**.

Document layout (format tag ``repro-store/2``)::

    {
      "format":   "repro-store/2",
      "program":  name,
      "sources":  [{"path": ..., "sha256": ..., ["abspath": ...]}, ...],
      "options":  non-default AnalyzerOptions (provenance; the demand
                  tier re-analyzes under them),
      "snapshot": {"digest": ..., "degradation": ...} — the run's
                  snapshot digests and sanitized degradation account,
                  equal to what ``repro snapshot`` computes,
      "ir":       per-procedure lowered-IR digests + the global
                  environment digest (repro.query.invalidate),
      "call_graph": caller -> sorted callees (the analysis-resolved one),
      "index":    the merged per-procedure fact tables below,
      "integrity": {"algorithm": "sha256", "digest": ...}
    }

Each fact is kept once, and nothing in the document depends on the
clock or the process: no creation time, no timers, no second layout of
the solution.  :func:`write_store` emits sorted-key compact JSON, so two
``repro index`` runs of the same sources from the same working
directory write the same bytes.

The ``index`` is where the demand API's speed comes from — every fact a
query needs, merged over all PTFs/contexts and pre-translated at build
time so a query is a dict probe, not a PTF walk:

* ``procedures[P].vars[V]`` — the caller-space points-to facts of
  variable ``V`` at the exit of ``P`` (targets by display name + the
  precise location sets), exactly
  :meth:`~repro.analysis.results.AnalysisResult.points_to_names` /
  ``points_to`` would answer live;
* ``procedures[P].alias[V]`` — per-PTF target sets in the PTF's own
  name space (``AnalysisResult.targets_by_ptf``), kept *per PTF* so the
  stored alias verdict compares targets within one context exactly like
  ``AnalysisResult.may_alias`` does (merging across PTFs would
  manufacture spurious may-aliases);
* ``procedures[P].modref`` — caller-visible MOD/REF location sets
  derived from PTF side effects (``AnalysisResult.mod_ref``);
* ``pointed_by[T]`` — the reverse points-to index: which ``(proc,
  var)`` pairs may point at block ``T``;
* ``callsites`` — per-call-site resolved targets, for
  ``modref(callsite)``.

Writes are atomic (:func:`repro.ioutil.atomic_write_text`: a unique
``<path>.tmp.<pid>`` sibling created with ``O_EXCL``, then
``os.replace``) so a crashed indexer never leaves a truncated store
behind and two concurrent indexers against the same path serialize to
last-replace-wins instead of corrupting each other's temporary file.

Readers are defensive (:func:`load_store`): the format tag, the
document shape, and a whole-store SHA-256 are all validated before a
single query is answered; a store of an older format is refused with a
hint to re-run ``repro index``.  The digest is computed at build time
over the canonical compact serialization of every section *except*
``integrity`` itself (:func:`store_integrity_digest`), so any
post-write corruption — a truncated replace, a flipped byte, a hand
edit — turns into a :class:`StoreError` with a stable
``repro:``-friendly message instead of a wrong answer or a traceback
deep inside the engine.  A document without the record loads without
the check (there is nothing to verify); ``verify=False`` skips it
explicitly (the serve daemon never does).
Consistency with the run it was built from is *provable*: the store's
``snapshot.digest`` equals the digest of a fresh ``repro snapshot`` of
the same sources, and the query/snapshot agreement property tests pin
the index to the snapshot's merged facts.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import IO, TYPE_CHECKING, Optional, Union

from ..ioutil import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.engine import AnalyzerOptions
    from ..analysis.results import AnalysisResult

__all__ = [
    "STORE_FORMAT",
    "StoreError",
    "build_store",
    "write_store",
    "load_store",
    "pointed_by_index",
    "procedure_record",
    "seal_store",
    "source_records",
    "store_integrity_digest",
    "verify_store_integrity",
]

#: bumped whenever the index layout changes incompatibly; the engine
#: refuses to query stores of a different format
STORE_FORMAT = "repro-store/2"

#: top-level sections a loadable store must carry as JSON objects (the
#: engine indexes into all of them unconditionally)
_REQUIRED_SECTIONS = ("snapshot", "ir", "call_graph", "index")


class StoreError(ValueError):
    """A store document that cannot be loaded or trusted.

    Raised for unknown format tags, truncated/invalid JSON, missing
    sections, and integrity-digest mismatches.  A ``ValueError``
    subclass so existing ``except ValueError`` call sites keep working;
    the CLI maps it to a ``repro:``-prefixed stderr line and exit 2,
    the daemon's ``reload`` op to a ``reload-failed`` error envelope
    (while the old store keeps serving).
    """


# ---------------------------------------------------------------------------
# location serialization
# ---------------------------------------------------------------------------


def _loc_key(base) -> str:
    """A stable identity key for a memory block across store/load.

    Block identity inside one process is object identity (``is``); on
    disk it becomes ``kind:qualified-name``.  Extended parameters are
    additionally qualified by their owning procedure — their bare names
    (``1_p``) are only unique within one PTF, and the per-PTF alias
    tables carry the PTF uid alongside for exactly that reason.
    """
    from ..memory.blocks import ExtendedParameter

    if isinstance(base, ExtendedParameter):
        rep = base.representative()
        if rep.global_block is not None:
            return f"{rep.global_block.kind}:{rep.global_block.name}"
        return f"xparam:{rep.proc_name}:{rep.name}"
    return f"{base.kind}:{base.name}"


def _loc_record(result: "AnalysisResult", loc) -> list:
    """``[key, display, offset, stride]`` — what the engine needs for
    rendering (display) and overlap arithmetic (offset/stride under the
    key's block)."""
    return [
        _loc_key(loc.base),
        result.display_name(loc.base),
        loc.offset,
        loc.stride,
    ]


# ---------------------------------------------------------------------------
# index construction
# ---------------------------------------------------------------------------


def _var_table(result: "AnalysisResult", proc_name: str) -> dict:
    """Caller-space points-to facts for every queryable variable of one
    procedure (empty answers are omitted — the engine distinguishes
    "no pointer values" from "unknown variable" via the ``queryable``
    list of :func:`procedure_record`)."""
    out: dict[str, dict] = {}
    for var in result.queryable_vars(proc_name):
        locs = result.points_to(proc_name, var)
        if not locs:
            continue
        records = sorted(
            (_loc_record(result, loc) for loc in locs), key=lambda r: (r[0], r[2], r[3])
        )
        out[var] = {
            "targets": sorted({r[1] for r in records}),
            "locs": records,
        }
    return out


def _alias_table(result: "AnalysisResult", proc_name: str) -> dict:
    """Per-PTF target sets in PTF name space, for alias verdicts."""
    out: dict[str, list] = {}
    for var in result.queryable_vars(proc_name):
        rows = []
        for ptf, targets in result.targets_by_ptf(proc_name, var):
            rows.append(
                {
                    "ptf": ptf.uid,
                    "locs": sorted(
                        ([_loc_key(t.base), t.offset, t.stride] for t in targets),
                        key=lambda r: (r[0], r[1], r[2]),
                    ),
                }
            )
        if rows:
            out[var] = rows
    return out


def procedure_record(result: "AnalysisResult", proc_name: str) -> dict:
    """The full per-procedure index record for one procedure."""
    vars_ = _var_table(result, proc_name)
    modref = result.mod_ref(proc_name)
    return {
        # every name a query may legally ask about in this procedure
        # (locals + globals); the engine uses this to distinguish
        # "unknown variable" (an error) from "no pointer values"
        # (an empty answer)
        "queryable": result.queryable_vars(proc_name),
        "vars": vars_,
        "alias": _alias_table(result, proc_name),
        "modref": modref,
        # locally pure *including* callee effects: the summary keys
        # already fold in everything callees did to caller-visible
        # memory, so an empty MOD set is transitively meaningful
        "pure": not modref["mod"],
    }


def pointed_by_index(procedures: dict) -> dict:
    """Invert per-procedure var tables into ``target -> [[proc, var]]``."""
    pointed_by: dict[str, set] = {}
    for proc_name, record in procedures.items():
        for var, rec in record["vars"].items():
            for name in rec["targets"]:
                pointed_by.setdefault(name, set()).add((proc_name, var))
    return {
        name: sorted(list(pair) for pair in pairs)
        for name, pairs in sorted(pointed_by.items())
    }


def _build_index(result: "AnalysisResult") -> dict:
    procedures = {
        proc_name: procedure_record(result, proc_name)
        for proc_name in sorted(result.program.procedures)
    }
    return {
        "procedures": procedures,
        "pointed_by": pointed_by_index(procedures),
        "callsites": result.callsites(),
    }


# ---------------------------------------------------------------------------
# store assembly + I/O
# ---------------------------------------------------------------------------


def source_records(paths: list, files: Optional[list] = None) -> list:
    """``[{"path", "sha256"}, ...]`` for the indexed source files —
    recorded so query answers can carry ready-made ``repro explain``
    invocations and so ``repro index`` can cheaply detect unchanged
    inputs before even re-lowering.

    ``path`` is kept as given, for display.  A relative one also records
    its absolute form as ``abspath``: that is where the demand tier's
    staleness probe reads the file, so a store queried from another
    working directory is not mistaken for stale.  ``files``, parallel to
    ``paths``, names where to read each source when that is not the path
    itself (the demand tier re-indexing from another directory)."""
    out = []
    for path, file in zip(paths, files or paths):
        with open(file, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        rec = {"path": str(path), "sha256": digest}
        if not os.path.isabs(path):
            rec["abspath"] = os.path.abspath(file)
        out.append(rec)
    return out


def build_store(
    result: "AnalysisResult",
    options: Optional["AnalyzerOptions"] = None,
    program_name: Optional[str] = None,
    sources: Optional[list] = None,
    source_files: Optional[list] = None,
    snapshot: Optional[dict] = None,
) -> dict:
    """Assemble the persistent store for a finished analysis.

    ``sources`` is the list of indexed file paths (recorded with content
    hashes, read from ``source_files`` when given — see
    :func:`source_records`); omit it for in-memory programs (tests).
    ``snapshot`` is this run's snapshot when the caller already built
    one (the parallel worker ships it in its bundle); the store keeps
    only its digest and degradation account.
    """
    from ..analysis.guards import address_taken_procs, indirect_call_procs
    from ..diagnostics.snapshot import build_snapshot
    from .invalidate import program_ir_digests

    if snapshot is None:
        snapshot = build_snapshot(
            result, options=options, program_name=program_name,
            include_solution=False,
        )
    ir = program_ir_digests(result.program)
    # recorded so staleness checks can widen across function-pointer
    # retargeting edits: an edit that makes a changed procedure
    # address-taken creates indirect call edges the *stored* call graph
    # cannot know about (see query/invalidate.py)
    ir["address_taken"] = sorted(address_taken_procs(result.program))
    ir["indirect_callers"] = sorted(indirect_call_procs(result.program))
    return seal_store({
        "format": STORE_FORMAT,
        "program": snapshot["program"],
        "sources": (
            source_records(list(sources), source_files) if sources else []
        ),
        "options": snapshot["options"],
        "snapshot": {
            "digest": snapshot["digest"],
            "degradation": snapshot["degradation"],
        },
        "ir": ir,
        "call_graph": snapshot["call_graph"],
        "index": _build_index(result),
    })


def store_integrity_digest(store: dict) -> str:
    """The whole-store SHA-256: over the canonical compact JSON of every
    section except ``integrity`` itself (a document cannot contain its
    own hash).  Key order is canonical (``sort_keys``) so the digest is
    independent of dict construction order."""
    body = {k: v for k, v in store.items() if k != "integrity"}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def seal_store(store: dict) -> dict:
    """Stamp (or refresh) the ``integrity`` record in place and return
    the store.  ``build_store`` seals every store it assembles; callers
    that mutate a store document afterwards must re-seal before writing
    or readers will refuse it as corrupted — which is the point."""
    store["integrity"] = {
        "algorithm": "sha256",
        "digest": store_integrity_digest(store),
    }
    return store


def verify_store_integrity(store: dict, label: str = "store") -> bool:
    """Recompute and check the whole-store digest.

    Returns True when the record was present and matched, False for
    pre-integrity stores (nothing to verify); raises :class:`StoreError`
    on a malformed record or a mismatch.
    """
    record = store.get("integrity")
    if record is None:
        return False
    if not isinstance(record, dict) or record.get("algorithm") != "sha256" \
            or not record.get("digest"):
        raise StoreError(f"{label}: malformed integrity record {record!r}")
    recorded = record["digest"]
    actual = store_integrity_digest(store)
    if actual != recorded:
        raise StoreError(
            f"{label}: integrity check failed — recorded sha256 "
            f"{recorded[:12]}... does not match the document "
            f"({actual[:12]}...); refusing to serve a corrupted store"
        )
    return True


def write_store(store: dict, path: Union[str, IO]) -> None:
    """Serialize ``store`` to ``path`` as canonical bytes (sorted keys,
    compact separators), atomically (unique per-process tmp +
    ``os.replace``); ``-`` or an open file object writes directly."""
    payload = json.dumps(store, sort_keys=True, separators=(",", ":")) + "\n"
    if path == "-":
        import sys

        sys.stdout.write(payload)
        return
    if hasattr(path, "write"):
        path.write(payload)
        return
    atomic_write_text(path, payload)


def load_store(source: Union[str, IO], verify: bool = True) -> dict:
    """Read and validate a store from a path or open file object.

    Every failure mode — truncated or non-JSON bytes, a non-object
    document, an unknown format tag, missing sections, an integrity
    mismatch — raises :class:`StoreError` with a message naming the
    store, never a raw decoder traceback.  ``verify=False`` skips only
    the whole-store digest check (the shape checks always run).
    """
    if hasattr(source, "read"):
        label = f"store {getattr(source, 'name', '<stream>')}"
        try:
            store = json.load(source)
        except ValueError as exc:
            raise StoreError(
                f"{label} is not valid JSON (truncated or corrupted): {exc}"
            ) from exc
    else:
        label = f"store {source}"
        try:
            with open(source, "r", encoding="utf-8") as fh:
                store = json.load(fh)
        except ValueError as exc:
            # UnicodeDecodeError lands here too (it is a ValueError)
            raise StoreError(
                f"{label} is not valid JSON (truncated or corrupted): {exc}"
            ) from exc
    if not isinstance(store, dict):
        raise StoreError(
            f"{label} is not a JSON object "
            f"(got {type(store).__name__})"
        )
    fmt = store.get("format")
    if fmt != STORE_FORMAT:
        raise StoreError(
            f"{label}: unsupported store format {fmt!r} "
            f"(expected {STORE_FORMAT!r}); re-run `repro index` to rebuild it"
        )
    for section in _REQUIRED_SECTIONS:
        if not isinstance(store.get(section), dict):
            raise StoreError(
                f"{label}: missing or malformed {section!r} section"
            )
    if not isinstance(store["index"].get("procedures"), dict):
        raise StoreError(f"{label}: index carries no procedure tables")
    if verify:
        verify_store_integrity(store, label=label)
    return store
