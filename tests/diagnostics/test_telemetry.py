"""Tests for the serve-path telemetry layer (repro.diagnostics.telemetry).

The load-bearing property is the histogram's accuracy contract: every
reported quantile is within one bucket's relative-error bound of the
exact sorted-sample quantile computed with the same nearest-rank rule.
Hypothesis drives that over adversarial positive samples spanning many
orders of magnitude.  The merge tests pin exactness (digest equality,
not float closeness) and the algebra the load generator leans on:
merging is associative and commutative, so per-thread histograms fold
to the same distribution in any order.
"""

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagnostics.telemetry import (
    DEFAULT_RELATIVE_ERROR,
    Counter,
    Gauge,
    LogHistogram,
    TelemetryRegistry,
    TokenBucket,
)

# positive samples spanning ~12 orders of magnitude (microseconds to
# hours, if read as milliseconds) — the histogram must hold its error
# bound across the whole range, not just around its "typical" scale
positive_samples = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


def exact_quantile(values, q):
    """The nearest-rank quantile the histogram approximates: rank
    ``max(1, ceil(q * n))`` over the sorted sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# -- quantile accuracy ----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(values=positive_samples, q=st.floats(min_value=0.0, max_value=1.0))
def test_quantile_within_relative_error_of_exact(values, q):
    hist = LogHistogram()
    hist.record_many(values)
    estimate = hist.quantile(q)
    exact = exact_quantile(values, q)
    assert estimate is not None
    # one bucket's bound: |est - exact| <= eps * exact, with a hair of
    # slack for the log/ceil boundary landing a value one bucket over
    tolerance = hist.relative_error * exact * 1.0001 + 1e-12
    assert abs(estimate - exact) <= tolerance


@settings(max_examples=50, deadline=None)
@given(values=positive_samples)
def test_extreme_quantiles_are_exact(values):
    hist = LogHistogram()
    hist.record_many(values)
    assert hist.quantile(0.0) == min(values)
    assert hist.quantile(1.0) == max(values)
    assert hist.min == min(values)
    assert hist.max == max(values)
    assert hist.count == len(values)


def test_empty_histogram_reports_none():
    hist = LogHistogram()
    assert hist.quantile(0.5) is None
    snap = hist.snapshot()
    assert snap["count"] == 0
    assert snap["min"] is None and snap["max"] is None
    assert snap["mean"] is None and snap["p99"] is None


def test_quantile_rejects_out_of_range():
    hist = LogHistogram()
    hist.record(1.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)
    with pytest.raises(ValueError):
        hist.quantile(-0.1)


def test_non_positive_values_land_in_zero_bucket():
    hist = LogHistogram()
    hist.record_many([-1.0, 0.0, 0.0, 5.0])
    assert hist.count == 4
    assert hist.min == -1.0 and hist.max == 5.0
    # rank 2 and 3 of 4 fall in the zero bucket
    assert hist.quantile(0.5) == 0.0


def test_relative_error_validation():
    with pytest.raises(ValueError):
        LogHistogram(relative_error=0.0)
    with pytest.raises(ValueError):
        LogHistogram(relative_error=1.0)


def test_snapshot_shape():
    hist = LogHistogram()
    hist.record_many([1.0, 2.0, 3.0])
    snap = hist.snapshot()
    assert snap["count"] == 3
    assert snap["min"] == 1.0 and snap["max"] == 3.0
    assert snap["mean"] == 2.0
    assert snap["relative_error"] == DEFAULT_RELATIVE_ERROR
    for key in ("p50", "p90", "p99"):
        assert snap[key] is not None


# -- merging --------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(a=positive_samples, b=positive_samples)
def test_merge_is_commutative(a, b):
    ha, hb = LogHistogram(), LogHistogram()
    ha.record_many(a)
    hb.record_many(b)
    ab = LogHistogram.merged([ha, hb])
    ba = LogHistogram.merged([hb, ha])
    assert ab.digest() == ba.digest()
    assert ab.count == len(a) + len(b)


@settings(max_examples=50, deadline=None)
@given(a=positive_samples, b=positive_samples, c=positive_samples)
def test_merge_is_associative(a, b, c):
    def fresh(samples):
        h = LogHistogram()
        h.record_many(samples)
        return h

    left = LogHistogram.merged([fresh(a), fresh(b)]).merge(fresh(c))
    right = fresh(a).merge(LogHistogram.merged([fresh(b), fresh(c)]))
    assert left.digest() == right.digest()


@settings(max_examples=50, deadline=None)
@given(values=positive_samples)
def test_merge_equals_direct_recording(values):
    """Splitting a sample across histograms and merging reproduces the
    single-histogram digest — recording order never matters."""
    direct = LogHistogram()
    direct.record_many(values)
    half = len(values) // 2
    a, b = LogHistogram(), LogHistogram()
    a.record_many(values[:half])
    b.record_many(values[half:])
    assert LogHistogram.merged([a, b]).digest() == direct.digest()


def test_merge_rejects_mismatched_relative_error():
    with pytest.raises(ValueError):
        LogHistogram(relative_error=0.01).merge(LogHistogram(relative_error=0.02))


def test_merged_of_nothing_is_empty():
    hist = LogHistogram.merged([])
    assert hist.count == 0


# -- thread safety --------------------------------------------------------


def test_concurrent_record_loses_nothing():
    """16 threads hammer one histogram; the result is digest-identical
    to recording the same multiset sequentially."""
    hist = LogHistogram()
    per_thread = 500
    threads = 16

    def worker(seed):
        for i in range(per_thread):
            hist.record(0.1 + ((seed * per_thread + i) % 97))

    pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()

    sequential = LogHistogram()
    for seed in range(threads):
        for i in range(per_thread):
            sequential.record(0.1 + ((seed * per_thread + i) % 97))

    assert hist.count == threads * per_thread
    assert hist.digest() == sequential.digest()


# -- counters / gauges / registry ----------------------------------------


def test_counter_and_gauge():
    c = Counter("requests")
    c.inc()
    c.inc(4)
    assert c.value == 5
    g = Gauge("in_flight")
    g.set(3)
    g.add(-1)
    assert g.value == 2


def test_registry_create_on_first_use_and_as_dict():
    reg = TelemetryRegistry()
    assert reg.counter("requests") is reg.counter("requests")
    assert reg.histogram("latency") is reg.histogram("latency")
    reg.counter("requests").inc(2)
    reg.gauge("in_flight").set(1)
    reg.histogram("latency").record(5.0)
    snap = reg.as_dict()
    assert snap["counters"] == {"requests": 2}
    assert snap["gauges"] == {"in_flight": 1}
    assert snap["histograms"]["latency"]["count"] == 1


def test_registry_merge():
    a, b = TelemetryRegistry(), TelemetryRegistry()
    a.counter("requests").inc(2)
    b.counter("requests").inc(3)
    b.counter("errors").inc(1)
    a.histogram("latency").record(1.0)
    b.histogram("latency").record(2.0)
    a.merge(b)
    snap = a.as_dict()
    assert snap["counters"] == {"errors": 1, "requests": 5}
    assert snap["histograms"]["latency"]["count"] == 2


# -- the token bucket (overload shedding, docs/ROBUSTNESS.md §8) ------------


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_starts_full_at_burst(self):
        bucket = TokenBucket(10.0, burst=3.0, clock=_FakeClock())
        assert bucket.tokens == 3.0

    def test_burst_defaults_to_rate_floor_one(self):
        assert TokenBucket(5.0, clock=_FakeClock()).burst == 5.0
        assert TokenBucket(0.25, clock=_FakeClock()).burst == 1.0

    def test_rejects_nonpositive_rate_and_burst(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0)
        with pytest.raises(ValueError):
            TokenBucket(-1.0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, burst=0.0)

    def test_take_drains_then_refuses_without_blocking(self):
        clock = _FakeClock()
        bucket = TokenBucket(1.0, burst=2.0, clock=clock)
        assert bucket.take() and bucket.take()
        assert not bucket.take()  # returned immediately, no sleep
        assert bucket.tokens == 0.0

    def test_refill_is_rate_times_elapsed_capped_at_burst(self):
        clock = _FakeClock()
        bucket = TokenBucket(2.0, burst=4.0, clock=clock)
        assert bucket.take(4.0)
        clock.now = 1.5
        assert bucket.tokens == pytest.approx(3.0)  # 1.5 s * 2/s
        clock.now = 100.0
        assert bucket.tokens == 4.0  # never exceeds burst

    def test_batch_take_is_all_or_nothing(self):
        bucket = TokenBucket(1.0, burst=3.0, clock=_FakeClock())
        assert not bucket.take(4.0)
        # the refused batch consumed nothing
        assert bucket.tokens == 3.0
        assert bucket.take(3.0)

    def test_retry_after_is_deficit_over_rate(self):
        clock = _FakeClock()
        bucket = TokenBucket(2.0, burst=2.0, clock=clock)
        assert bucket.retry_after_seconds() == 0.0
        assert bucket.take(2.0)
        assert bucket.retry_after_seconds(1.0) == pytest.approx(0.5)
        assert bucket.retry_after_seconds(2.0) == pytest.approx(1.0)
        clock.now = 0.5  # one token refilled
        assert bucket.retry_after_seconds(1.0) == 0.0

    def test_admission_sequence_is_deterministic(self):
        def run():
            clock = _FakeClock()
            bucket = TokenBucket(1.0, burst=2.0, clock=clock)
            verdicts = []
            for step in range(10):
                clock.now = step * 0.4
                verdicts.append(bucket.take())
            return verdicts

        assert run() == run()

    def test_clock_going_backwards_does_not_mint_tokens(self):
        clock = _FakeClock()
        clock.now = 10.0
        bucket = TokenBucket(1.0, burst=1.0, clock=clock)
        assert bucket.take()
        clock.now = 5.0  # a (hypothetically) misbehaving clock
        assert bucket.tokens == 0.0


# -- Prometheus text exposition (the `metrics` admin op) --------------------


def test_prometheus_text_shape():
    from repro.diagnostics.telemetry import prometheus_text

    reg = TelemetryRegistry()
    reg.counter("requests").inc(7)
    reg.gauge("in_flight").set(2)
    reg.histogram("latency.points_to").record_many([1.0, 2.0, 3.0])
    text = prometheus_text(reg, extra_gauges={"server.uptime_seconds": 1.5})
    lines = text.splitlines()
    assert "# TYPE repro_requests_total counter" in lines
    assert "repro_requests_total 7" in lines
    assert "# TYPE repro_in_flight gauge" in lines
    assert "repro_in_flight 2" in lines
    assert "# TYPE repro_server_uptime_seconds gauge" in lines
    assert "repro_server_uptime_seconds 1.5" in lines
    assert "# TYPE repro_latency_points_to summary" in lines
    assert "repro_latency_points_to_count 3" in lines
    assert any(
        l.startswith('repro_latency_points_to{quantile="0.5"}')
        for l in lines
    )
    # every HELP has a TYPE, every metric name is legal
    import re

    metric = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*")
    for line in lines:
        if not line.startswith("#"):
            assert metric.match(line), line


def test_prometheus_text_is_deterministic():
    from repro.diagnostics.telemetry import prometheus_text

    def build():
        reg = TelemetryRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        reg.gauge("z").set(1)
        reg.histogram("h").record(1.0)
        return prometheus_text(reg)

    assert build() == build()
