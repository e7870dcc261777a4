"""Property: store answers are derivable from — and never exceed — the
snapshot they were built from, across the benchmark suite.

The store is a *reorganization* of the run its snapshot digest pins
down, not a second analysis; so for every benchmark program:

* a ``points_to`` answer equals the live merged answer
  (:meth:`AnalysisResult.points_to_names` over all PTFs/contexts) —
  **derivable**;
* every name it reports resolves into the snapshot solution's value
  universe for that procedure — it **never exceeds** the snapshot's
  merged facts;
* an ``alias`` verdict agrees with the live :meth:`may_alias`, and a
  ``may`` verdict's witness cites location rows present in the stored
  per-PTF alias tables (the witness itself is derivable).

Hypothesis drives the sweep: it draws (program, procedure, variable
pair) and the engine must hold the properties on all of them.  Analyses
are computed once per program and cached for the module (same
``reset_interning`` discipline as the snapshot determinism tests).
"""

from __future__ import annotations

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.engine import AnalyzerOptions
from repro.bench.harness import analyze_benchmark
from repro.bench.programs import PROGRAMS
from repro.diagnostics.snapshot import build_snapshot
from repro.memory.pointsto import reset_interning
from repro.query import QueryEngine, build_store

ALL_NAMES = [p.name for p in PROGRAMS]

_cache: dict[str, tuple] = {}

#: ``(name, offset[, stride])`` — the stable str() form of location sets
#: used throughout the canonical snapshot solution
_LOC_STR = re.compile(r"\(([^,()]+),")


def corpus(name: str):
    """(result, store, engine, per-proc snapshot name universe) for one
    benchmark, computed once."""
    if name not in _cache:
        reset_interning()
        result = analyze_benchmark(name, AnalyzerOptions())
        store = build_store(result, program_name=name)
        snapshot = build_snapshot(result, program_name=name)
        # the store pins the same run the universe is drawn from
        assert store["snapshot"]["digest"] == snapshot["digest"]
        universe = {
            proc: _value_universe(payloads)
            for proc, payloads in snapshot["solution"].items()
        }
        _cache[name] = (result, store, QueryEngine(store), universe)
    return _cache[name]


def _names_in(rendered: str) -> set[str]:
    return set(_LOC_STR.findall(rendered))


def _value_universe(payloads: list) -> set[str]:
    """Every base name appearing anywhere in a procedure's canonical PTF
    payloads (initial-entry sources/targets and final points-to values),
    normalized to bare names (``proc::x`` -> ``x``)."""
    names: set[str] = set()
    for payload in payloads:
        for entry in payload["initial"]:
            names |= _names_in(entry["source"])
            for t in entry["targets"]:
                names |= _names_in(t)
        for key, values in payload["final"].items():
            names |= _names_in(key)
            for v in values:
                names |= _names_in(v)
    return {n.split("::")[-1] for n in names}


def _in_universe(name: str, names: set) -> bool:
    """``name`` appears in a universe directly, or as the extended
    parameter bound to it (caller-space ``work`` is PTF-space
    ``4_work``)."""
    if name in names:
        return True
    xparam = re.compile(r"\d+_" + re.escape(name) + r"\Z")
    return any(xparam.fullmatch(n) for n in names)


def _names_real_memory(key: str, program) -> bool:
    """Whether a stored location key names memory the program actually
    has — the bound for *concretized* caller-space facts, which may
    legitimately reach a caller-frame local the PTF-space snapshot only
    names through a process-local extended-parameter binding."""
    kind, _, rest = key.partition(":")
    if kind == "local":
        proc_name, _, var = rest.rpartition("::")
        proc = program.procedures.get(proc_name)
        return proc is not None and (
            var in proc.locals or any(f.name == var for f in proc.formals)
        )
    if kind == "global":
        return rest in program.globals
    if kind == "proc":
        return rest in program.procedures or rest in program.external_calls
    # heap/string/retval/xparam blocks are analysis-created; their keys
    # embed the creating site/procedure and cannot be cross-checked
    # against the source symbol tables
    return kind in ("heap", "string", "retval", "xparam")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_stored_fact_is_derivable_and_bounded(name):
    """Exhaustive over the store (not sampled):

    * caller-space vars-table answers equal the live merged answer and
      never name memory the program doesn't have;
    * the PTF-space alias tables — the exact facts the snapshot
      canonicalized — stay inside the snapshot's value universe for
      their procedure.
    """
    result, store, engine, universe = corpus(name)
    for proc, rec in store["index"]["procedures"].items():
        for var, entry in rec["vars"].items():
            live = sorted(result.points_to_names(proc, var))
            answer = engine.points_to(var, proc)
            assert answer["targets"] == live, (name, proc, var)
            for key, _display, _off, _stride in entry["locs"]:
                assert _names_real_memory(key, result.program), (
                    name, proc, var, key)
        for var, rows in rec["alias"].items():
            for row in rows:
                for key, _off, _stride in row["locs"]:
                    kind, _, rest = key.partition(":")
                    if kind in ("string", "heap", "retval"):
                        # their names embed literal text / site
                        # coordinates with commas and quotes, which the
                        # universe's location-set parse cannot extract;
                        # covered by the real-memory bound above
                        continue
                    base = rest.rpartition(":")[2] if kind == "xparam" else rest
                    base = base.split("::")[-1]
                    assert _in_universe(base, universe[proc]), (
                        name, proc, var, key)


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_alias_verdicts_agree_with_live_and_witness_is_stored(data):
    name = data.draw(st.sampled_from(ALL_NAMES), label="program")
    result, store, engine, _ = corpus(name)
    procs = sorted(store["index"]["procedures"])
    proc = data.draw(st.sampled_from(procs), label="proc")
    rec = store["index"]["procedures"][proc]
    pool = sorted(rec["alias"]) or rec["queryable"]
    if not pool:
        return
    a = data.draw(st.sampled_from(pool), label="a")
    b = data.draw(st.sampled_from(pool), label="b")
    answer = engine.alias(a, b, proc)
    live = result.may_alias(proc, a, b)
    assert (answer["verdict"] == "may") == live, (name, proc, a, b)
    if answer["witness"] is not None:
        w = answer["witness"]
        rows_a = {row["ptf"]: row["locs"] for row in rec["alias"].get(a, ())}
        rows_b = {row["ptf"]: row["locs"] for row in rec["alias"].get(b, ())}
        assert w["a"] in rows_a[w["ptf"]], (name, proc, a, b, w)
        assert w["b"] in rows_b[w["ptf"]], (name, proc, a, b, w)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_sampled_points_to_round_trips_through_query_grammar(data):
    from repro.query import parse_query_spec

    name = data.draw(st.sampled_from(ALL_NAMES), label="program")
    _, store, engine, _ = corpus(name)
    procs = sorted(store["index"]["procedures"])
    proc = data.draw(st.sampled_from(procs), label="proc")
    rec = store["index"]["procedures"][proc]
    if not rec["queryable"]:
        return
    var = data.draw(st.sampled_from(rec["queryable"]), label="var")
    request = parse_query_spec(f"points-to {var}@{proc}")
    direct = engine.points_to(var, proc)
    via_grammar = engine.query(request)
    assert via_grammar["targets"] == direct["targets"]
