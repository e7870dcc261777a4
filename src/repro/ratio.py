"""The null-on-zero-denominator ratio.

A leaf with no imports, shared by the analysis metrics
(:mod:`repro.diagnostics.metrics`), the serving telemetry
(:mod:`repro.diagnostics.telemetry`), the load generator and the query
engine's hit rate, so the engine can derive it without loading the
metrics layer.
"""

from __future__ import annotations

from typing import Optional, Union

__all__ = ["safe_ratio"]


def safe_ratio(
    numerator: Union[int, float],
    denominator: Union[int, float],
    ndigits: int = 4,
) -> Optional[float]:
    """``numerator / denominator`` rounded, or ``None`` on a zero
    denominator.

    The single guard behind every derived ratio (``Metrics.as_dict``'s
    ``cache_hit_rate`` / ``dom_steps_per_lookup``, the same hit rate in
    Table 2 rows and ``--jobs`` bundles, the query engine's
    ``cache_hit_rate``, histogram means).  ``None`` — not ``0.0`` —
    because a run that never probed a cache is not an all-miss run, and
    downstream consumers (the snapshot differ, the Table 2 rows) must
    not be fed a fabricated number.
    """
    if not denominator:
        return None
    return round(numerator / denominator, ndigits)
