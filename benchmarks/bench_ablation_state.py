"""Ablation: the paper's sparse representation (§4.2) vs dense maps.

The sparse scheme records points-to deltas only where they change and looks
values up through the dominator tree; the dense reference implementation
(the test oracle ``tests/memory/dense_oracle.py``) keeps a full map per
node.  Both must compute identical results; the trade-off under test is
time/space.
"""

import pytest

from repro.bench import analyze_benchmark
from tests.memory.dense_oracle import DenseState, use_state

SUBSET = ["grep", "compress", "loader", "eqntott"]


def analyze_kind(name, kind="sparse"):
    if kind == "dense":
        with use_state(DenseState):
            return analyze_benchmark(name)
    return analyze_benchmark(name)


@pytest.mark.parametrize("name", SUBSET)
@pytest.mark.parametrize("kind", ["sparse", "dense"])
def test_state_kind_time(benchmark, name, kind):
    result = benchmark.pedantic(
        analyze_kind,
        args=(name, kind),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["avg_ptfs"] = round(result.stats().avg_ptfs, 2)


@pytest.mark.parametrize("name", SUBSET)
def test_sparse_and_dense_agree(name):
    """The two representations are interchangeable: same points-to names
    for every global pointer variable."""
    import re

    def canon(names):
        # string-literal blocks carry a global site counter that differs
        # between program loads; compare by literal text only
        return {re.sub(r"@str\d+$", "", n) for n in names}

    sparse = analyze_kind(name)
    dense = analyze_kind(name, "dense")
    for var, symbol in sparse.program.globals.items():
        s = canon(sparse.points_to_names("main", var))
        d = canon(dense.points_to_names("main", var))
        assert s == d, f"{name}: {var}: sparse {s} != dense {d}"


@pytest.mark.parametrize("name", SUBSET)
def test_sparse_stores_fewer_entries(name):
    """The sparse states record per-node deltas; dense states materialize
    full in/out maps.  Count stored bindings."""
    sparse = analyze_kind(name)
    dense = analyze_kind(name, "dense")

    def stored(result, attr_names):
        total = 0
        for ptfs in result.analyzer.ptfs.values():
            for ptf in ptfs:
                for attr in attr_names:
                    maps = getattr(ptf.state, attr, None)
                    if maps:
                        total += sum(len(m) for m in maps.values())
        return total

    sparse_entries = stored(sparse, ["_defs"])
    dense_entries = stored(dense, ["_in", "_out"])
    assert sparse_entries < dense_entries, (sparse_entries, dense_entries)
