"""Unit tests for the diagnostics metrics layer.

The analysis-side wiring (counters actually moving during a run, the
``--stats-json`` CLI surface) is covered by the engine and CLI tests;
these pin the ``Metrics`` container itself: counter bookkeeping, the
phase/procedure timers, the derived hit rate, serialization and merging.
"""

import json

from repro.analysis.engine import AnalyzerOptions, analyze
from repro.diagnostics.metrics import COUNTERS, Metrics
from repro.frontend.parser import load_program

from ..memory.dense_oracle import use_state
from ..memory.uncached_oracle import UncachedSparseState


class TestCounters:
    def test_starts_at_zero(self):
        m = Metrics()
        assert all(v == 0 for v in m.counters().values())
        assert set(m.counters()) == set(COUNTERS)

    def test_plain_attribute_increment(self):
        # the hot-path contract: counters are plain attributes
        m = Metrics()
        m.cache_hits += 3
        m.dom_walk_steps += 10
        got = m.counters()
        assert got["cache_hits"] == 3
        assert got["dom_walk_steps"] == 10
        assert got["cache_misses"] == 0

    def test_reset_clears_everything(self):
        m = Metrics()
        m.lookups += 5
        m.add_proc_time("f", 0.5, passes=2)
        with m.phase("analysis"):
            pass
        m.reset()
        assert all(v == 0 for v in m.counters().values())
        assert m.phase_seconds == {}
        assert m.proc_seconds == {}
        assert m.proc_self_seconds == {}
        assert m.proc_passes == {}


class TestDerived:
    """Derived ratios come only from ``as_dict``, through ``safe_ratio``:
    an empty denominator reads ``null``, never a fabricated 0.0."""

    def test_dom_steps_per_lookup_null_without_lookups(self):
        assert Metrics().as_dict()["derived"]["dom_steps_per_lookup"] is None

    def test_dom_steps_per_lookup(self):
        m = Metrics()
        m.lookups, m.dom_walk_steps = 4, 10
        assert m.as_dict()["derived"]["dom_steps_per_lookup"] == 2.5

    def test_as_dict_exposes_derived_block(self):
        m = Metrics()
        m.lookups, m.dom_walk_steps = 2, 5
        m.cache_hits, m.cache_misses = 1, 1
        d = m.as_dict()
        assert d["derived"]["dom_steps_per_lookup"] == 2.5
        assert d["derived"]["cache_hit_rate"] == 0.5


class TestHitRate:
    def test_zero_probes_is_null(self):
        d = Metrics().as_dict()
        assert d["derived"]["cache_hit_rate"] is None

    def test_rate(self):
        m = Metrics()
        m.cache_hits, m.cache_misses = 3, 1
        assert m.as_dict()["derived"]["cache_hit_rate"] == 0.75


class TestTimers:
    def test_phase_accumulates_on_reentry(self):
        m = Metrics()
        with m.phase("analysis"):
            pass
        first = m.phase_seconds["analysis"]
        with m.phase("analysis"):
            pass
        assert m.phase_seconds["analysis"] >= first
        assert set(m.phase_seconds) == {"analysis"}

    def test_phase_recorded_on_exception(self):
        m = Metrics()
        try:
            with m.phase("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert "boom" in m.phase_seconds

    def test_proc_time_accumulates(self):
        m = Metrics()
        m.add_proc_time("f", 0.25, passes=1)
        m.add_proc_time("f", 0.25, passes=2)
        m.add_proc_time("g", 1.0)
        assert m.proc_seconds["f"] == 0.5
        assert m.proc_passes["f"] == 3
        assert m.proc_seconds["g"] == 1.0
        assert "g" not in m.proc_passes  # passes=0 records nothing

    def test_self_time_defaults_to_inclusive(self):
        m = Metrics()
        m.add_proc_time("f", 0.5)
        assert m.proc_self_seconds["f"] == 0.5

    def test_explicit_self_time(self):
        m = Metrics()
        m.add_proc_time("f", 1.0, self_seconds=0.25)
        assert m.proc_seconds["f"] == 1.0
        assert m.proc_self_seconds["f"] == 0.25

    def test_nested_proc_frames_split_self_time(self):
        import time

        m = Metrics()
        m.start_proc("caller")
        time.sleep(0.01)
        m.start_proc("callee")
        time.sleep(0.01)
        m.end_proc(passes=1)
        m.end_proc(passes=1)
        # caller's inclusive time covers the callee; its self time does not
        assert m.proc_seconds["caller"] >= m.proc_seconds["callee"]
        assert m.proc_self_seconds["caller"] <= (
            m.proc_seconds["caller"] - m.proc_seconds["callee"] + 1e-6
        )
        assert m.proc_self_seconds["callee"] >= 0.009
        assert m._proc_stack == []

    def test_end_proc_returns_inclusive_seconds(self):
        m = Metrics()
        m.start_proc("f")
        elapsed = m.end_proc()
        assert elapsed >= 0.0
        assert m.proc_seconds["f"] == elapsed


class TestSerialization:
    def test_as_dict_is_json_serializable(self):
        m = Metrics()
        m.cache_hits += 1
        m.add_proc_time("main", 0.1, passes=1)
        with m.phase("analysis"):
            pass
        blob = json.dumps(m.as_dict())
        back = json.loads(blob)
        assert back["counters"]["cache_hits"] == 1
        assert back["derived"]["cache_hit_rate"] == 1.0
        assert back["timers"]["procedures"]["main"] >= 0.1
        assert back["timers"]["procedures_self"]["main"] >= 0.1
        assert back["timers"]["procedure_passes"]["main"] == 1
        assert "dom_steps_per_lookup" in back["derived"]


SOURCE = """
int g;
void set(int **pp, int *v) { *pp = v; }
int main(void) {
    int x;
    int *p;
    set(&p, &x);
    if (g) set(&p, &g);
    *p = 1;
    return 0;
}
"""


class TestEndToEndWiring:
    def test_analysis_populates_counters_and_timers(self):
        program = load_program(SOURCE, "m.c", "m")
        analyzer = analyze(program, AnalyzerOptions())
        m = analyzer.metrics
        assert m.lookups > 0
        assert m.eval_passes > 0
        assert m.strong_updates > 0
        assert m.dom_walk_steps >= 0
        assert m.cache_hits + m.cache_misses > 0
        assert "analysis" in m.phase_seconds
        assert "main" in m.proc_seconds
        assert "main" in m.proc_self_seconds
        # main's self time excludes time spent evaluating set()
        assert m.proc_self_seconds["main"] <= m.proc_seconds["main"] + 1e-9
        assert m.proc_seconds["set"] > 0
        stats = analyzer.stats_dict()
        assert stats["counters"]["lookups"] == m.lookups
        json.dumps(stats)  # must be serializable as-is

    def test_disabled_cache_counts_no_probes(self):
        program = load_program(SOURCE, "m.c", "m")
        with use_state(UncachedSparseState):
            analyzer = analyze(program)
        m = analyzer.metrics
        assert m.cache_hits == 0 and m.cache_misses == 0
        assert m.dom_walk_steps > 0
        # without the overlap memo every read runs its interval scans, so
        # at least as many index entries are examined as with it
        cached = analyze(load_program(SOURCE, "m.c", "m"), AnalyzerOptions())
        assert cached.metrics.cache_hits + cached.metrics.cache_misses > 0
        assert m.dom_walk_steps >= cached.metrics.dom_walk_steps
        assert m.lookups == cached.metrics.lookups
