"""Which modules each entry point loads.

A one-shot ``repro query`` answers from a sealed store; it has no use
for the C frontend or the analyzer unless a source changed since
``repro index``.  Every module it imports anyway is compiled on every
run, so these tests pin the boundary in fresh interpreters: the query
and serve paths load the analysis and frontend layers only when a stale
source forces a refresh, and then they do load them.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: runs ``python -m repro ARGS...`` and, at exit, writes the sorted names
#: of the loaded repro/pycparser modules to the file named by argv[1]
PROBE = """
import atexit, json, runpy, sys

dest = sys.argv.pop(1)


def dump():
    loaded = sorted(
        m for m in sys.modules if m.split(".")[0] in ("repro", "pycparser")
    )
    with open(dest, "w") as fh:
        json.dump(loaded, fh)


atexit.register(dump)
sys.argv[0] = "repro"
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

#: loaded only to lower or analyze a source
ANALYSIS_LAYERS = (
    "repro.memory.pointsto",
    "repro.analysis.engine",
    "repro.analysis.interproc",
    "repro.analysis.intra",
    "repro.analysis.context",
    "repro.analysis.results",
    "repro.analysis.ptf",
    "repro.analysis.scc",
)
FRONTEND_PREFIXES = ("repro.frontend", "repro.ir", "pycparser")

SOURCE = """
int g, h;
int *gp;
void set(int **pp, int *v) { *pp = v; }
int main(void) {
    int *p = &g;
    set(&gp, &h);
    return *p;
}
"""

QUERIES = ["points-to p@main", "alias p gp", "callees main", "modref set"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_repro(tmp_path, args, stdin=None):
    """``python -m repro ARGS`` in a fresh interpreter -> (process,
    loaded modules)."""
    dest = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(dest), *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env=_env(),
    )
    return proc, json.loads(dest.read_text())


def frontend_modules(loaded):
    return [m for m in loaded if m.startswith(FRONTEND_PREFIXES)]


def analysis_modules(loaded):
    return [m for m in loaded if m in ANALYSIS_LAYERS]


@pytest.fixture
def indexed(tmp_path):
    src = tmp_path / "prog.c"
    src.write_text(SOURCE)
    store = tmp_path / "prog.store.json"
    assert main(["index", str(src), "-o", str(store)]) == 0
    return src, store


def test_import_cli_loads_no_frontend_or_analyzer():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "repro.cli" in loaded
    assert "repro.analysis.engine" not in loaded
    assert frontend_modules(loaded) == []


def test_query_on_fresh_store_skips_frontend_and_analyzer(tmp_path, indexed):
    _, store = indexed
    proc, loaded = run_repro(tmp_path, ["query", str(store), "--json", *QUERIES])
    assert proc.returncode == 0, proc.stderr
    answers = json.loads(proc.stdout)
    assert answers[0]["targets"] == ["g"]
    assert all("mode" not in a for a in answers)
    assert frontend_modules(loaded) == []
    assert analysis_modules(loaded) == []
    # a budget for the store path itself (it loads 15 today)
    assert len(loaded) <= 20, loaded


def test_query_on_stale_store_loads_the_demand_path(tmp_path, indexed):
    src, store = indexed
    src.write_text(SOURCE.replace("int *p = &g;", "int *p = &h;"))
    proc, loaded = run_repro(tmp_path, ["query", str(store), "--json", *QUERIES])
    assert proc.returncode == 0, proc.stderr
    answers = json.loads(proc.stdout)
    assert answers[0]["targets"] == ["h"]
    assert answers[0]["mode"] == "demand"
    assert "pycparser" in loaded
    assert "repro.frontend.lower" in loaded
    assert "repro.ir.program" in loaded
    assert analysis_modules(loaded) == sorted(ANALYSIS_LAYERS)


def test_serve_on_fresh_store_skips_frontend_and_analyzer(tmp_path, indexed):
    _, store = indexed
    requests = [
        {"op": "points_to", "var": "p", "proc": "main", "id": 1},
        {"op": "shutdown", "id": 2},
    ]
    proc, loaded = run_repro(
        tmp_path,
        ["serve", str(store)],
        stdin="".join(json.dumps(r) + "\n" for r in requests),
    )
    assert proc.returncode == 0, proc.stderr
    first = json.loads(proc.stdout.splitlines()[0])
    assert first["result"]["targets"] == ["g"]
    assert "repro.query.server" in loaded
    assert frontend_modules(loaded) == []
    assert analysis_modules(loaded) == []
