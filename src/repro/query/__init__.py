"""Pointer analysis as a service — analyze once, answer many queries.

This package is the demand-query subsystem layered on top of the
analysis engine (see ``docs/QUERY.md``):

* :mod:`repro.query.store` — the persistent analysis store
  (``repro index`` writes it); the canonical run snapshot plus a
  query-ready index of merged per-procedure facts.
* :mod:`repro.query.engine` — the demand API: points-to, alias,
  pointed-by, MOD/REF and call-graph reachability answered from a
  loaded store, with an LRU cache feeding the metrics layer.
* :mod:`repro.query.server` — the long-lived daemon behind ``repro
  serve``: JSON-lines over stdio or TCP, request batching, structured
  error envelopes following the CLI's 0/2/4 status convention.
* :mod:`repro.query.invalidate` — staleness detection for ``repro
  index``: per-procedure IR digests and the minimal stale set
  (changed procedures plus their transitive call-graph dependents).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".store": (
        "STORE_FORMAT",
        "StoreError",
        "build_store",
        "write_store",
        "load_store",
        "seal_store",
        "source_records",
        "store_integrity_digest",
        "verify_store_integrity",
    ),
    ".engine": ("QueryEngine", "QueryError", "parse_query_spec", "OPS"),
    ".invalidate": (
        "StaleReport",
        "compute_stale",
        "compute_stale_between_stores",
        "program_ir_digests",
        "procedure_ir_digest",
    ),
})
