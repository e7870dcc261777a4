"""The request mix the daemon is measured with (``build_workload``).

The repo benchmark's serve workloads import it, so a workload must be
a pure function of its store and arguments.
"""

import pytest

from repro import AnalyzerOptions, analyze_source
from repro.bench.loadgen import build_workload
from repro.cli import main
from repro.query import build_store

SOURCE = """
int g;
int *gp;
void set(int **pp, int *v) { *pp = v; }
int use(int *p) { return *p; }
int main(void) {
    int x, y;
    int *p = &x;
    int *q = &y;
    set(&gp, &g);
    return use(p) + use(q);
}
"""


@pytest.fixture(scope="module")
def store():
    result = analyze_source(SOURCE, options=AnalyzerOptions())
    return build_store(result, program_name="loadgen")


def test_build_workload_is_deterministic(store):
    a = build_workload(store, 40, seed=7)
    b = build_workload(store, 40, seed=7)
    assert a == b
    assert len(a) == 40
    assert build_workload(store, 40, seed=8) != a


def test_build_workload_repeat_half_repeats_prefix(store):
    wl = build_workload(store, 20, seed=1, repeat_half=True)
    assert wl[10:] == wl[:10]
    fresh = build_workload(store, 20, seed=1, repeat_half=False)
    assert fresh[10:] != fresh[:10]


def test_loadtest_is_an_invalid_choice(capsys):
    """``repro loadtest`` is gone: the serve gates drive the daemon from
    ``tests/query/load_clients.py``, the benchmark from
    ``benchmarks/perf``."""
    with pytest.raises(SystemExit) as exc:
        main(["loadtest", "x"])
    assert exc.value.code == 2
    assert "argument command: invalid choice: 'loadtest'" in (
        capsys.readouterr().err
    )
