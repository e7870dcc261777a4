"""Serve-path telemetry: counters, gauges, and streaming histograms.

Where :class:`~repro.diagnostics.metrics.Metrics` instruments the
*analysis* (single-threaded, hot inner loops, plain ``+=`` attributes),
this module instruments the *serving* path (``repro serve`` /
``repro loadtest``): many threads, per-request latencies spanning six
orders of magnitude, and a live process that must answer "how am I
doing?" without pausing.  Three primitives, one registry:

* :class:`Counter` — a monotone event count (requests, errors,
  deadline expiries, cache hits);
* :class:`Gauge` — a current level (in-flight requests);
* :class:`LogHistogram` — a **log-bucketed streaming histogram** of a
  positive quantity (request latency in milliseconds).

The histogram is the load-bearing piece.  It follows the HDR/DDSketch
recipe: values land in geometric buckets whose boundaries grow by a
fixed factor ``gamma = (1 + eps) / (1 - eps)``, so

* ``record`` is **O(1)** — one ``log``, one dict increment — and the
  memory is O(number of distinct buckets touched), not O(samples);
* every reported quantile is within **bounded relative error** ``eps``
  (default 1%) of the exact sorted-sample quantile: the bucket midpoint
  ``2·gamma^i / (gamma + 1)`` is at most ``eps`` away (relatively) from
  any value in bucket ``i`` — the property
  ``tests/diagnostics/test_telemetry.py`` pins with hypothesis;
* two histograms **merge** by adding bucket counts — exact, lossless,
  associative and commutative (``merge(a, b).digest() ==
  merge(b, a).digest()``), which is what lets the load generator give
  every client thread its own histogram and fold them afterwards with
  no cross-thread contention.

Snapshots (:meth:`LogHistogram.snapshot`) export exact ``count`` /
``min`` / ``max`` and estimated ``p50`` / ``p90`` / ``p99`` (any
quantile via :meth:`LogHistogram.quantile`); the mean is derived through
the one shared :func:`~repro.ratio.safe_ratio` guard so an
empty histogram reports ``null``, never a fabricated ``0.0``.

:class:`TelemetryRegistry` is the thread-safe namespace the daemon owns:
``registry.counter("requests").inc()``, ``registry.gauge("in_flight")``,
``registry.histogram("latency.points_to").record(ms)``.  Instruments are
created on first use and live forever (a live admin ``stats`` op must
never see a counter vanish).  ``as_dict()`` follows the same
JSON-snapshot convention as ``Metrics.as_dict`` — plain data, sorted
keys, ``null`` for undefined ratios — and ``merge()`` folds another
registry in (the load generator's per-thread registries).
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from typing import Iterable, Optional

from ..ratio import safe_ratio

__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "TelemetryRegistry",
    "TokenBucket",
    "DEFAULT_RELATIVE_ERROR",
    "prometheus_text",
]

#: default bounded relative error of histogram quantiles (1%)
DEFAULT_RELATIVE_ERROR = 0.01

#: quantiles every snapshot exports, in reporting order
SNAPSHOT_QUANTILES = (0.5, 0.9, 0.99)


class Counter:
    """A monotone event counter (thread-safe)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A current-level gauge (thread-safe; ``add`` for +/- deltas)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value


class TokenBucket:
    """A thread-safe token-bucket rate limiter (the serve daemon's
    overload-shedding primitive — docs/ROBUSTNESS.md §8).

    ``rate`` tokens refill per second up to a ``burst`` ceiling
    (default ``max(1, rate)``); :meth:`take` admits a request batch of
    ``n`` tokens or refuses it without blocking, and
    :meth:`retry_after_seconds` reports how long until ``n`` tokens
    would be available — the daemon turns that into the
    ``retry_after_ms`` hint on ``overloaded`` error envelopes.

    The refill clock is injectable (default ``time.monotonic``) so the
    admission decisions are exactly reproducible under a fake clock in
    tests; under the real clock the *decision rule* is still
    deterministic — admit iff the bucket holds ``n`` tokens — which is
    what "deterministic load shedding" means here: no randomness, no
    dependence on thread arrival order beyond the serialized takes.
    """

    __slots__ = ("rate", "burst", "_clock", "_tokens", "_stamp", "_lock")

    def __init__(self, rate: float, burst: Optional[float] = None,
                 clock=time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"token bucket rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        if self.burst <= 0:
            raise ValueError(
                f"token bucket burst must be positive, got {self.burst}"
            )
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        if now > self._stamp:
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
        self._stamp = now

    def take(self, n: float = 1.0) -> bool:
        """Admit ``n`` tokens' worth of work, or refuse (never blocks)."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    def retry_after_seconds(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens would be available (0 if already)."""
        with self._lock:
            self._refill_locked()
            deficit = n - self._tokens
            return 0.0 if deficit <= 0 else deficit / self.rate

    @property
    def tokens(self) -> float:
        """The current (refilled) token level."""
        with self._lock:
            self._refill_locked()
            return self._tokens


class LogHistogram:
    """Log-bucketed streaming histogram with bounded relative error.

    Buckets are geometric: value ``v > 0`` lands in bucket
    ``ceil(log(v) / log(gamma))`` with ``gamma = (1 + eps) / (1 - eps)``.
    Non-positive values (a clock that went backwards, a zero-length
    request) are counted in a dedicated zero bucket so ``count`` stays
    exact.  All statistics except the quantile *positions* are exact:
    ``count``, ``min``, ``max``, per-bucket counts, and the merge of two
    histograms.  ``sum`` is kept for the derived mean but deliberately
    excluded from :meth:`digest` — float addition is commutative but not
    associative, and the digest exists to prove the *mergeable state*
    (bucket table + exact extremes) is order-independent.
    """

    __slots__ = (
        "relative_error",
        "_gamma",
        "_log_gamma",
        "_buckets",
        "_zero_count",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError(
                f"relative_error must be in (0, 1), got {relative_error!r}"
            )
        self.relative_error = relative_error
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        #: bucket index -> count (sparse; touched buckets only)
        self._buckets: dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _bucket_index(self, value: float) -> int:
        return math.ceil(math.log(value) / self._log_gamma)

    def _bucket_value(self, index: int) -> float:
        """The representative (midpoint) value of bucket ``index``:
        ``2·gamma^i / (gamma + 1)``, within ``relative_error`` of every
        value the bucket can contain."""
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def record(self, value: float) -> None:
        """Record one sample.  O(1); thread-safe."""
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if value <= 0.0:
                self._zero_count += 1
                return
            index = self._bucket_index(value)
            self._buckets[index] = self._buckets.get(index, 0) + 1

    def record_n(self, value: float, n: int) -> None:
        """Record ``n`` samples of the same ``value`` in O(1) — the
        daemon's batched lines share one wire latency, so a batch is one
        bucket increment, not ``n`` lock round-trips."""
        if n <= 0:
            return
        with self._lock:
            self._count += n
            self._sum += value * n
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if value <= 0.0:
                self._zero_count += n
                return
            index = self._bucket_index(value)
            self._buckets[index] = self._buckets.get(index, 0) + n

    def record_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    # -- statistics --------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    def quantile(self, q: float) -> Optional[float]:
        """The estimated ``q``-quantile (``0 <= q <= 1``), or ``None``
        on an empty histogram.

        Uses the nearest-rank definition (rank ``ceil(q * count)``,
        minimum 1) over the bucket table; the returned value is the
        containing bucket's midpoint, except for the exact extremes:
        rank 1 returns the exact ``min`` and rank ``count`` the exact
        ``max`` (both tracked precisely, so ``p0``/``p100`` never drift).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            if self._count == 0:
                return None
            rank = max(1, math.ceil(q * self._count))
            if rank >= self._count:
                return self._max
            if rank <= 1:
                return self._min
            seen = self._zero_count
            if rank <= seen:
                return 0.0
            for index in sorted(self._buckets):
                seen += self._buckets[index]
                if rank <= seen:
                    return self._bucket_value(index)
            return self._max  # pragma: no cover - guarded by rank checks

    def snapshot(self, ndigits: int = 4) -> dict:
        """JSON-ready summary: exact count/min/max/sum, estimated
        p50/p90/p99, derived mean (``null`` when empty)."""
        quantiles = {
            f"p{int(q * 100)}": self.quantile(q) for q in SNAPSHOT_QUANTILES
        }
        with self._lock:
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        out = {
            "count": count,
            "sum": round(total, 6),
            "min": None if lo is None else round(lo, 6),
            "max": None if hi is None else round(hi, 6),
            "mean": safe_ratio(total, count, 6),
            "relative_error": self.relative_error,
        }
        for name, value in quantiles.items():
            out[name] = None if value is None else round(value, ndigits)
        return out

    # -- merging -----------------------------------------------------------

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into this histogram (returns ``self``).

        Exact: bucket counts add; min/max take the extremes.  Requires
        the same ``relative_error`` (the bucket grids must line up)."""
        if other.relative_error != self.relative_error:
            raise ValueError(
                "cannot merge histograms with different relative errors: "
                f"{self.relative_error} vs {other.relative_error}"
            )
        # lock ordering by id() so two concurrent a.merge(b) / b.merge(a)
        # calls cannot deadlock
        first, second = sorted((self, other), key=id)
        with first._lock, second._lock:
            for index, n in other._buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + n
            self._zero_count += other._zero_count
            self._count += other._count
            self._sum += other._sum
            if other._min is not None and (
                self._min is None or other._min < self._min
            ):
                self._min = other._min
            if other._max is not None and (
                self._max is None or other._max > self._max
            ):
                self._max = other._max
        return self

    @classmethod
    def merged(cls, histograms: Iterable["LogHistogram"]) -> "LogHistogram":
        """A fresh histogram holding the fold of ``histograms``."""
        out: Optional[LogHistogram] = None
        for h in histograms:
            if out is None:
                out = cls(relative_error=h.relative_error)
            out.merge(h)
        return out if out is not None else cls()

    def digest(self) -> str:
        """SHA-256 over the exact mergeable state (sorted bucket table,
        zero bucket, count, min, max).  Equal digests == equal
        distributions as far as any quantile can tell; the associativity
        and commutativity tests compare digests, not floats."""
        with self._lock:
            payload = (
                f"eps={self.relative_error!r};zero={self._zero_count};"
                f"count={self._count};min={self._min!r};max={self._max!r};"
                + ",".join(
                    f"{i}:{self._buckets[i]}" for i in sorted(self._buckets)
                )
            )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TelemetryRegistry:
    """Thread-safe namespace of counters, gauges, and histograms.

    Instruments are created on first access and never removed; ``name``
    is the flat dotted key the snapshot exports (``requests``,
    ``latency.points_to``).  The registry lock only guards the *name
    tables* — each instrument carries its own lock, so two threads
    recording into different histograms never contend here.
    """

    def __init__(
        self, relative_error: float = DEFAULT_RELATIVE_ERROR
    ) -> None:
        self.relative_error = relative_error
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LogHistogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str) -> LogHistogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = LogHistogram(
                    relative_error=self.relative_error
                )
            return inst

    # -- export ------------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-serializable snapshot of every instrument — the same
        convention as :meth:`repro.diagnostics.metrics.Metrics.as_dict`
        (plain data, sorted keys downstream, ``null`` ratios)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: counters[k].value for k in sorted(counters)},
            "gauges": {k: gauges[k].value for k in sorted(gauges)},
            "histograms": {
                k: histograms[k].snapshot() for k in sorted(histograms)
            },
        }

    def merge(self, other: "TelemetryRegistry") -> "TelemetryRegistry":
        """Fold another registry in (per-thread load-generator
        registries); counters/gauges add, histograms merge exactly."""
        with other._lock:
            counters = dict(other._counters)
            gauges = dict(other._gauges)
            histograms = dict(other._histograms)
        for name, c in counters.items():
            self.counter(name).inc(c.value)
        for name, g in gauges.items():
            self.gauge(name).add(g.value)
        for name, h in histograms.items():
            self.histogram(name).merge(h)
        return self


# ---------------------------------------------------------------------------
# Prometheus text exposition (docs/OBSERVABILITY.md §5)
# ---------------------------------------------------------------------------

#: characters legal in a Prometheus metric name after the first
_PROM_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _prom_name(*parts: str) -> str:
    """A legal Prometheus metric name from dotted instrument names:
    ``latency.points_to`` -> ``repro_latency_points_to``."""
    flat = "_".join(p.replace(".", "_") for p in parts if p)
    flat = "".join(c if c in _PROM_OK else "_" for c in flat)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return flat


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(float(value)) if isinstance(value, float) else str(value)


def prometheus_text(
    registry: TelemetryRegistry,
    prefix: str = "repro",
    extra_gauges: Optional[dict] = None,
) -> str:
    """Render a registry in the Prometheus text exposition format
    (version 0.0.4): ``# HELP`` / ``# TYPE`` headers, counters suffixed
    ``_total``, gauges plain, histograms as summaries (``{quantile=…}``
    series plus ``_sum`` / ``_count``).

    ``extra_gauges`` lets a caller fold in scalar levels that live
    outside the registry (the daemon's uptime, generation, in-flight
    count) so one scrape answers everything.  Deterministic: metrics are
    emitted in sorted-name order.
    """
    lines: list[str] = []
    snap = registry.as_dict()
    for name in sorted(snap["counters"]):
        metric = _prom_name(prefix, name) + "_total"
        lines.append(f"# HELP {metric} Monotone event counter {name!r}.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(snap['counters'][name])}")
    gauges = dict(snap["gauges"])
    for key, value in (extra_gauges or {}).items():
        gauges[key] = value
    for name in sorted(gauges):
        metric = _prom_name(prefix, name)
        lines.append(f"# HELP {metric} Current level {name!r}.")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(gauges[name])}")
    for name in sorted(snap["histograms"]):
        hist = snap["histograms"][name]
        metric = _prom_name(prefix, name)
        lines.append(
            f"# HELP {metric} Log-bucketed histogram {name!r} "
            f"(relative error {hist['relative_error']})."
        )
        lines.append(f"# TYPE {metric} summary")
        for q in SNAPSHOT_QUANTILES:
            value = hist.get(f"p{int(q * 100)}")
            lines.append(
                f'{metric}{{quantile="{q}"}} {_prom_value(value)}'
            )
        lines.append(f"{metric}_sum {_prom_value(hist['sum'])}")
        lines.append(f"{metric}_count {hist['count']}")
    return "\n".join(lines) + "\n"
