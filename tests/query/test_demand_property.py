"""Property: demand answers ≡ exhaustive-store answers, byte for byte,
across the whole benchmark suite (the acceptance gate for demand mode).

For every benchmark program the corpus holds two independent pipelines
over the same sources:

* **exhaustive** — analyze, ``build_store``, store-backed
  :class:`QueryEngine` (exactly what ``repro index`` + ``repro query``
  do), and
* **demand** — a :class:`DemandTier` over that store, made to see the
  sources as edited (the store's recorded content hashes are blanked),
  so its probe re-lowers them after ``fresh_analysis_state`` and
  ``DemandTier.answer`` serves from the tier's own in-memory index.

The exhaustive sweep then compares every answer the store can produce —
``points_to`` for every indexed (proc, var), ``modref``/``callees``/
``callers`` for every procedure, ``pointed_by`` for every indexed
target — via ``json.dumps(sort_keys=True)`` equality.  Hypothesis
drives an additional randomized ``alias`` sweep (pairs, including the
witness payload) on top.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.demand import DemandTier, fresh_analysis_state
from repro.analysis.engine import AnalyzerOptions
from repro.analysis.results import run_analysis
from repro.bench.programs import PROGRAMS, source_path
from repro.frontend.parser import load_project_files
from repro.query import QueryEngine, build_store

ALL_NAMES = [p.name for p in PROGRAMS]

_cache: dict[str, tuple] = {}


def corpus(name: str):
    """(store, store engine, demand tier) for one benchmark.

    The tier's first answer builds its in-memory index while its
    analysis generation is the active one; after that, both sides
    answer from rendered records only, so the module-level cache is
    safe across the per-benchmark ``fresh_analysis_state`` resets.
    """
    if name not in _cache:
        path = source_path(name)

        fresh_analysis_state()
        program = load_project_files([path], name=name)
        result = run_analysis(program, AnalyzerOptions())
        store = build_store(result, program_name=name, sources=[path])
        store_engine = QueryEngine(store)

        edited_view = dict(store)
        edited_view["sources"] = [
            dict(rec, sha256="0" * 64) for rec in store["sources"]
        ]
        tier = DemandTier(edited_view)
        assert tier.probe() == "fresh"  # same IR: nothing is stale...
        tier.answer({"op": "callees", "proc": "main"})  # ...but it indexes

        _cache[name] = (store, store_engine, tier)
    return _cache[name]


def assert_same_answer(store_engine, demand, request, context):
    expected = json.dumps(store_engine.query(dict(request)), sort_keys=True)
    got = json.dumps(demand.answer(dict(request)), sort_keys=True)
    assert got == expected, context


@pytest.mark.parametrize("name", ALL_NAMES)
def test_demand_equals_store_exhaustively(name):
    """Every answer the store index can produce, demand reproduces."""
    store, store_engine, demand = corpus(name)
    procedures = store["index"]["procedures"]
    assert procedures, name
    for proc, rec in sorted(procedures.items()):
        for var in sorted(rec["vars"]):
            assert_same_answer(
                store_engine, demand,
                {"op": "points_to", "var": var, "proc": proc},
                (name, proc, var),
            )
        for request in (
            {"op": "modref", "proc": proc},
            {"op": "callees", "proc": proc},
            {"op": "callers", "proc": proc},
        ):
            assert_same_answer(
                store_engine, demand, request, (name, proc, request["op"])
            )
    for target in sorted(store["index"]["pointed_by"]):
        assert_same_answer(
            store_engine, demand,
            {"op": "pointed_by", "name": target},
            (name, target),
        )


@pytest.mark.parametrize("name", ALL_NAMES)
def test_demand_pointed_by_has_no_extra_targets(name):
    """Demand's reverse index names exactly the store's targets — no
    target appears on one side only."""
    store, _, demand = corpus(name)
    fresh = demand._fresh_engine().store  # built by corpus(), memoized
    assert set(fresh["index"]["pointed_by"]) == set(
        store["index"]["pointed_by"]
    )


@given(data=st.data())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_alias_verdicts_identical(data):
    """Randomized alias pairs (same-proc), witness payload included."""
    name = data.draw(st.sampled_from(ALL_NAMES))
    store, store_engine, demand = corpus(name)
    procedures = store["index"]["procedures"]
    eligible = sorted(p for p, r in procedures.items() if len(r["vars"]) >= 2)
    if not eligible:
        return
    proc = data.draw(st.sampled_from(eligible))
    variables = sorted(procedures[proc]["vars"])
    a = data.draw(st.sampled_from(variables))
    b = data.draw(st.sampled_from(variables))
    assert_same_answer(
        store_engine, demand,
        {"op": "alias", "a": a, "b": b, "proc": proc},
        (name, proc, a, b),
    )
