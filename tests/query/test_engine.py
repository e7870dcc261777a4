"""The demand query engine: every op, the grammar, the cache, deadlines.

The fidelity anchor is always the live :class:`AnalysisResult` the store
was built from — a stored answer is correct iff the live API agrees.
"""

import pytest

from repro import AnalyzerOptions, analyze_source
from repro.analysis.guards import AnalysisBudget, GuardTripped
from repro.diagnostics import Tracer
from repro.query import (
    QueryEngine,
    QueryError,
    build_store,
    parse_query_spec,
)
from repro.query.engine import QueryCounters

SOURCE = """
int g;
int *gp;
void set(int **pp, int *v) { *pp = v; }
int use(int *p) { return *p; }
int maybe(int c, int *a, int *b) {
    int *r = c ? a : b;
    return *r;
}
int main(void) {
    int x, y;
    int *p = &x;
    int *q = &x;
    int *r = &y;
    set(&gp, &g);
    maybe(1, p, r);
    return use(p) + *q;
}
"""


@pytest.fixture(scope="module")
def result():
    return analyze_source(SOURCE, options=AnalyzerOptions())


@pytest.fixture(scope="module")
def store(result):
    return build_store(result, program_name="unit")


@pytest.fixture()
def engine(store):
    return QueryEngine(store)


# -- grammar ----------------------------------------------------------------


def test_parse_points_to():
    assert parse_query_spec("points-to p@main") == {
        "op": "points_to", "var": "p", "proc": "main"}
    assert parse_query_spec("points-to p")["proc"] == "main"


def test_parse_alias_forms():
    assert parse_query_spec("alias a b@f") == {
        "op": "alias", "a": "a", "b": "b", "proc": "f"}
    assert parse_query_spec("alias a,b@f")["proc"] == "f"
    # proc attached to the first variable distributes to the pair
    assert parse_query_spec("alias a@f b")["proc"] == "f"


def test_parse_modref_forms():
    assert parse_query_spec("modref f") == {"op": "modref", "proc": "f"}
    assert parse_query_spec("modref f:12") == {
        "op": "modref", "proc": "f", "line": 12}


def test_parse_rejects_garbage():
    for bad in ("", "frobnicate x", "points-to", "alias onlyone",
                "reaches just_src"):
        with pytest.raises(QueryError) as exc:
            parse_query_spec(bad)
        assert exc.value.code == "bad-request"


# -- op fidelity ------------------------------------------------------------


def test_points_to_agrees_with_live(engine, result):
    ans = engine.query({"op": "points_to", "var": "p", "proc": "main"})
    assert ans["targets"] == sorted(result.points_to_names("main", "p"))
    assert ans["explain"].startswith("repro explain")


def test_alias_verdicts_agree_with_live(engine, result):
    cases = [("p", "q", "main"), ("p", "r", "main"), ("p", "gp", "main"),
             ("a", "b", "maybe"), ("r", "a", "maybe")]
    for a, b, proc in cases:
        ans = engine.query({"op": "alias", "a": a, "b": b, "proc": proc})
        live = result.may_alias(proc, a, b)
        assert (ans["verdict"] == "may") == live, (a, b, proc)
        if ans["verdict"] == "may":
            assert ans["witness"] is not None
            # the witness names a block both variables reach
            assert ans["witness"]["a"][0] == ans["witness"]["b"][0]
        else:
            assert ans["witness"] is None


def test_pointed_by_inverse(engine):
    fwd = engine.query({"op": "points_to", "var": "p", "proc": "main"})
    for target in fwd["targets"]:
        back = engine.query({"op": "pointed_by", "name": target})
        assert ["main", "p"] in back["pointers"]


def test_modref_procedure(engine, result):
    ans = engine.query({"op": "modref", "proc": "set"})
    live = result.mod_ref("set")
    assert ans["mod"] == live["mod"]
    assert ans["ref"] == live["ref"]
    assert ans["pure"] == (not live["mod"])


def test_modref_callsite_unions_callees(engine, store):
    [site] = [s for s in store["index"]["callsites"]
              if s["proc"] == "main" and "set" in s["callees"]]
    line = int(site["coord"].rsplit(":", 2)[-2])
    ans = engine.query({"op": "modref", "proc": "main", "line": line})
    assert "set" in ans["callees"]
    per_proc = engine.query({"op": "modref", "proc": "set"})
    for name in per_proc["mod"]:
        assert name in ans["mod"]


def test_reaches_and_call_neighbourhoods(engine):
    ans = engine.query({"op": "reaches", "src": "main", "dst": "use"})
    assert ans["reachable"] and ans["path"][0] == "main" \
        and ans["path"][-1] == "use"
    no = engine.query({"op": "reaches", "src": "use", "dst": "main"})
    assert not no["reachable"] and no["path"] == []
    assert "set" in engine.query({"op": "callees", "proc": "main"})["callees"]
    assert engine.query({"op": "callers", "proc": "use"})["callers"] == ["main"]


def test_empty_answer_vs_unknown_var(engine):
    # a queryable variable with no pointer values answers empty ...
    ans = engine.query({"op": "points_to", "var": "x", "proc": "main"})
    assert ans["targets"] == []
    # ... an unknown name is an error
    with pytest.raises(QueryError) as exc:
        engine.query({"op": "points_to", "var": "nosuch", "proc": "main"})
    assert exc.value.code == "unknown-var"


def test_unknown_proc_and_op(engine):
    with pytest.raises(QueryError) as exc:
        engine.query({"op": "modref", "proc": "nosuch"})
    assert exc.value.code == "unknown-proc"
    with pytest.raises(QueryError) as exc:
        engine.query({"op": "frobnicate"})
    assert exc.value.code == "bad-request"


# -- cache ------------------------------------------------------------------


def test_cache_hits_and_metrics(store):
    counters = QueryCounters()
    tracer = Tracer()
    engine = QueryEngine(store, counters=counters, tracer=tracer)
    req = {"op": "points_to", "var": "p", "proc": "main"}
    first = engine.query(req)
    second = engine.query(dict(req))  # equal but distinct dict
    assert second is first  # shared cache entry
    assert counters.queries == 2
    assert counters.cache_hits == 1
    assert counters.cache_misses == 1
    assert counters.hit_rate() == 0.5
    names = [e["name"] for e in tracer.events]
    assert names.count("query.miss") == 1
    assert names.count("query.hit") == 1


def test_cache_is_bounded_lru(store):
    engine = QueryEngine(store, cache_size=2)
    a = {"op": "callees", "proc": "main"}
    b = {"op": "callees", "proc": "set"}
    c = {"op": "callees", "proc": "use"}
    engine.query(a)
    engine.query(b)
    engine.query(a)      # a is now most recent
    engine.query(c)      # evicts b
    engine.query(a)
    assert engine.counters.cache_hits == 2
    engine.query(b)      # miss again: was evicted
    assert engine.counters.cache_misses == 4


def test_request_id_does_not_split_cache(store):
    engine = QueryEngine(store)
    engine.query({"op": "stats", "id": 1})
    first = engine.query({"op": "callees", "proc": "main", "id": 1})
    second = engine.query({"op": "callees", "proc": "main", "id": 2})
    assert second is first


def test_stats_never_cached(engine):
    s1 = engine.query({"op": "stats"})
    s2 = engine.query({"op": "stats"})
    assert s2["queries"] == s1["queries"] + 1


# -- deadlines --------------------------------------------------------------


def test_expired_budget_trips_guard(store):
    tracer = Tracer()
    engine = QueryEngine(store, tracer=tracer)
    budget = AnalysisBudget(deadline_seconds=0.0)
    budget.start()
    with pytest.raises(GuardTripped) as exc:
        engine.query({"op": "stats"}, budget=budget)
    assert exc.value.reason == "deadline"
    assert any(e["name"] == "query.deadline" for e in tracer.events)


def test_unexpired_budget_is_transparent(engine):
    budget = AnalysisBudget(deadline_seconds=60.0)
    budget.start()
    ans = engine.query({"op": "callees", "proc": "main"}, budget=budget)
    assert ans["callees"]


# -- store validation -------------------------------------------------------


def test_engine_rejects_wrong_format(store):
    bad = dict(store)
    bad["format"] = "repro-store/999"
    with pytest.raises(ValueError, match="unsupported store format"):
        QueryEngine(bad)
