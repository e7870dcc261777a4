"""Unit tests for the demand tier (repro.analysis.demand).

Covers the one-analysis-per-source-generation memoization, the trace
instants, the budget/deadline guard, the error state for edits that
leave nothing analyzable, and the reconstruction of the store's
analyzer options.
"""

import pytest

from repro import AnalyzerOptions
from repro.analysis.demand import (
    DemandTier,
    fresh_analysis_state,
    index_in_memory,
    options_from_store,
)
from repro.analysis.guards import AnalysisBudget, GuardTripped
from repro.diagnostics.trace import Tracer
from repro.frontend.parser import load_project_files
from repro.query import QueryEngine, load_store, seal_store, write_store

CHAIN = """
int g1, g2;
int *identity(int *p) { return p; }
int *wrap(int *p) { return identity(p); }
void sink(int *p) { *p = 1; }
int main(void) {
    int *a = wrap(&g1);
    sink(a);
    return 0;
}
int *orphan(int *q) { return q; }
"""

#: main now wraps g2: every procedure main reaches is stale
EDITED = CHAIN.replace("wrap(&g1)", "wrap(&g2)")


def edited_tier(tmp_path, edited=EDITED, tracer=None):
    """A tier over an index of CHAIN whose source now reads ``edited``."""
    src = tmp_path / "chain.c"
    src.write_text(CHAIN)
    fresh_analysis_state()
    program = load_project_files([str(src)], name="chain")
    store = index_in_memory(program, program_name="chain", sources=[str(src)])
    src.write_text(edited)
    tier = DemandTier(store, tracer=tracer)
    return tier, QueryEngine(store, demand=tier)


A_MAIN = {"op": "points_to", "var": "a", "proc": "main"}


# -- one analysis per source generation ---------------------------------------


class TestLaziness:
    def test_one_fixpoint_across_many_queries(self, tmp_path):
        tier, engine = edited_tier(tmp_path)
        engine.query(dict(A_MAIN))
        engine.query({"op": "points_to", "var": "p", "proc": "identity"})
        engine.query({"op": "modref", "proc": "sink"})
        engine.query({"op": "pointed_by", "name": "g2"})
        assert tier.stats()["analyses"] == 1
        assert tier.stats()["fallbacks"] == 4

    def test_reachable_answer_has_real_facts(self, tmp_path):
        _, engine = edited_tier(tmp_path)
        info = {}
        ans = engine.query(dict(A_MAIN), info=info)
        assert info["mode"] == "demand"
        assert ans["targets"] == ["g2"]

    def test_unrun_analysis_is_not_degraded(self, tmp_path):
        tier, engine = edited_tier(tmp_path)
        assert tier.probe() == "stale"
        assert tier.stats()["analyses"] == 0  # probing never analyzes
        info = {}
        engine.query(dict(A_MAIN), info=info)
        assert "demand_degraded" not in info

    def test_new_generation_analyzes_again(self, tmp_path):
        tier, engine = edited_tier(tmp_path)
        engine.query(dict(A_MAIN))
        (tmp_path / "chain.c").write_text(CHAIN.replace("wrap(&g1)", "&g1"))
        assert engine.query(dict(A_MAIN))["targets"] == ["g1"]
        assert tier.stats()["analyses"] == 2


# -- tracing ----------------------------------------------------------------


class TestTracing:
    def test_stale_analyze_and_fallback_instants(self, tmp_path):
        tracer = Tracer()
        _, engine = edited_tier(tmp_path, tracer=tracer)
        engine.query(dict(A_MAIN))
        engine.query(dict(A_MAIN))
        names = [e["name"] for e in tracer.events if e["cat"] == "demand"]
        assert names == [
            "demand.stale", "demand.analyze", "demand.fallback",
            "demand.fallback",
        ]
        analyze = next(
            e for e in tracer.events if e["name"] == "demand.analyze"
        )
        assert analyze["args"]["procs"] == 5


# -- budget -----------------------------------------------------------------


class TestBudget:
    def test_expired_deadline_trips_guard(self, tmp_path):
        tier, engine = edited_tier(tmp_path)
        budget = AnalysisBudget(deadline_seconds=0.0)
        budget.start()
        with pytest.raises(GuardTripped) as exc:
            engine.query(dict(A_MAIN), budget=budget)
        assert exc.value.reason == "deadline"
        assert tier.stats()["analyses"] == 0  # refused before any fixpoint


# -- nothing analyzable -------------------------------------------------------


class TestMissingMain:
    def test_edit_removing_main_serves_store_annotated_stale(self, tmp_path):
        no_main = CHAIN.replace("int main(void)", "int not_main(void)")
        tier, engine = edited_tier(tmp_path, edited=no_main)
        info = {}
        ans = engine.query(dict(A_MAIN), info=info)
        assert info.get("stale") is True and "mode" not in info
        assert ans["targets"] == ["g1"]  # the stored fact
        stats = engine.query({"op": "stats"})["demand"]
        assert stats["error"] == "no analyzable main procedure"
        assert stats["analyses"] == 0 and stats["stale_served"] == 1


# -- options reconstruction -------------------------------------------------


class TestOptionsFromStore:
    def test_recorded_fields_round_trip(self):
        store = {"options": {"strong_updates": False, "heap_context_depth": 2}}
        opts = options_from_store(store)
        assert opts.strong_updates is False
        assert opts.heap_context_depth == 2

    def test_unknown_fields_ignored(self):
        opts = options_from_store({"options": {"not_a_field": 1}})
        assert opts == AnalyzerOptions()

    def test_missing_options_block(self):
        assert options_from_store({}) == AnalyzerOptions()

    def test_store_with_retired_options_answers_and_reindexes(self, tmp_path):
        """A store that recorded options this version no longer has (the
        dense state and the uncached switch) still loads, answers, and
        re-indexes in demand mode after a source edit."""
        src = tmp_path / "chain.c"
        src.write_text(CHAIN)
        fresh_analysis_state()
        program = load_project_files([str(src)], name="chain")
        store = index_in_memory(program, program_name="chain", sources=[str(src)])
        retired = {"state_kind": "dense", "lookup_cache": False}
        store["options"] = dict(retired)
        store["snapshot"]["options"] = dict(retired)
        path = tmp_path / "chain.store.json"
        write_store(seal_store(store), str(path))
        store = load_store(str(path))
        assert options_from_store(store) == AnalyzerOptions()
        engine = QueryEngine(store, demand=DemandTier(store))
        assert engine.query(dict(A_MAIN))["targets"] == ["g1"]
        src.write_text(EDITED)
        info = {}
        assert engine.query(dict(A_MAIN), info=info)["targets"] == ["g2"]
        assert info["mode"] == "demand"
