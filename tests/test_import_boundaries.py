"""Which modules each entry point loads, and how many source lines.

A one-shot ``repro query`` answers from a sealed store; it has no use
for the C frontend or the analyzer unless a source changed since
``repro index``.  Where no ``.pyc`` is written (``PYTHONDONTWRITEBYTECODE``),
every module it imports anyway is compiled on every run, and compile
time scales with source lines, not with module counts.  So these tests
pin, in fresh interpreters, the lines each entry point loads, and the
boundary: the query and serve paths load the analysis and frontend
layers only when a stale source forces a refresh, and then they do load
them.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: writes ``{module: source lines}`` for the loaded repro/pycparser
#: modules to the file named by argv[1] at exit
DUMP = """
import atexit, json, sys

dest = sys.argv.pop(1)


def dump():
    loaded = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] in ("repro", "pycparser"):
            with open(module.__file__, "rb") as fh:
                loaded[name] = fh.read().count(b"\\n")
    with open(dest, "w") as fh:
        json.dump(loaded, fh)


atexit.register(dump)
"""

#: runs ``python -m repro ARGS...`` under :data:`DUMP`
PROBE = DUMP + """
import runpy

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


#: most repro source lines each entry point may load on unchanged
#: sources; compile time follows lines (docs/QUERY.md §7)
IMPORT_CLI_LINES = 400
QUERY_LINES = 2_400
SERVE_LINES = 4_200


def _probe(tmp_path, script, args, stdin=None):
    dest = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(dest), *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env=_env(),
    )
    return proc, json.loads(dest.read_text())


def run_repro(tmp_path, args, stdin=None):
    """``python -m repro ARGS`` in a fresh interpreter -> (process,
    ``{loaded module: source lines}``)."""
    return _probe(tmp_path, PROBE, args, stdin)


def repro_lines(loaded):
    return sum(n for m, n in loaded.items() if m.split(".")[0] == "repro")


def frontend_modules(loaded):
    return sorted(m for m in loaded if m.startswith(FRONTEND_PREFIXES))


def analysis_modules(loaded):
    return sorted(m for m in loaded if m in ANALYSIS_LAYERS)


@pytest.fixture
def indexed(tmp_path):
    src = tmp_path / "prog.c"
    src.write_text(SOURCE)
    store = tmp_path / "prog.store.json"
    assert main(["index", str(src), "-o", str(store)]) == 0
    return src, store


def test_import_cli_loads_no_frontend_or_analyzer(tmp_path):
    proc, loaded = _probe(tmp_path, DUMP + "import repro.cli", [])
    assert proc.returncode == 0, proc.stderr
    assert "repro.cli" in loaded
    assert not any(m.startswith("repro.commands.") for m in loaded), loaded
    assert "repro.analysis.engine" not in loaded
    assert frontend_modules(loaded) == []
    assert repro_lines(loaded) <= IMPORT_CLI_LINES, loaded


def test_query_on_fresh_store_skips_frontend_and_analyzer(tmp_path, indexed):
    _, store = indexed
    proc, loaded = run_repro(tmp_path, ["query", str(store), "--json", *QUERIES])
    assert proc.returncode == 0, proc.stderr
    answers = json.loads(proc.stdout)
    assert answers[0]["targets"] == ["g"]
    assert all("mode" not in a for a in answers)
    assert frontend_modules(loaded) == []
    assert analysis_modules(loaded) == []
    assert "repro.analysis.guards" not in loaded
    assert not any(m.startswith("repro.memory") for m in loaded), loaded
    assert not any(m.startswith("repro.diagnostics") for m in loaded), loaded
    assert [m for m in loaded if m.startswith("repro.commands.")] == [
        "repro.commands.query"
    ]
    assert repro_lines(loaded) <= QUERY_LINES, loaded


def test_query_deadline_loads_the_budget_only(tmp_path, indexed):
    _, store = indexed
    proc, loaded = run_repro(
        tmp_path, ["query", str(store), "--deadline", "30", *QUERIES]
    )
    assert proc.returncode == 0, proc.stderr
    assert "repro.analysis.guards" in loaded
    assert analysis_modules(loaded) == []
    assert frontend_modules(loaded) == []


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


def _serve(tmp_path, store, extra=()):
    requests = [
        {"op": "points_to", "var": "p", "proc": "main", "id": 1},
        *extra,
        {"op": "shutdown", "id": 9},
    ]
    proc, loaded = run_repro(
        tmp_path,
        ["serve", str(store)],
        stdin="".join(json.dumps(r) + "\n" for r in requests),
    )
    assert proc.returncode == 0, proc.stderr
    replies = [json.loads(line) for line in proc.stdout.splitlines()]
    assert replies[0]["result"]["targets"] == ["g"]
    return replies, loaded


def test_serve_on_fresh_store_skips_frontend_and_analyzer(tmp_path, indexed):
    _, store = indexed
    _, loaded = _serve(tmp_path, store)
    assert "repro.query.server" in loaded
    assert "repro.query.invalidate" not in loaded
    assert "repro.analysis.guards" not in loaded
    assert frontend_modules(loaded) == []
    assert analysis_modules(loaded) == []
    assert repro_lines(loaded) <= SERVE_LINES, loaded


def test_serve_loads_invalidation_on_reload(tmp_path, indexed):
    _, store = indexed
    replies, loaded = _serve(tmp_path, store, [{"op": "reload", "id": 2}])
    assert replies[1]["status"] == 0, replies[1]
    assert "repro.query.invalidate" in loaded
    assert analysis_modules(loaded) == []
    # the store-to-store comparison lowers nothing
    assert frontend_modules(loaded) == []
    assert "repro.analysis.guards" not in loaded


def test_index_loads_no_query_engine_or_telemetry(tmp_path):
    src = tmp_path / "prog.c"
    src.write_text(SOURCE)
    proc, loaded = run_repro(
        tmp_path, ["index", str(src), "-o", str(tmp_path / "prog.store.json")]
    )
    assert proc.returncode == 0, proc.stderr
    assert "repro.analysis.engine" in loaded
    for module in (
        "repro.query.engine",
        "repro.query.server",
        "repro.diagnostics.telemetry",
    ):
        assert module not in loaded
