"""The command-line surface, byte for byte.

``cli_surface.json`` holds the output of ``repro --help``, of every
``repro <command> --help``, of ``repro`` with no arguments and of a few
usage errors, recorded with ``COLUMNS=80`` from the single-module CLI
that preceded the command table (and re-recorded when the analyzer flags
lost ``--state`` and ``--no-lookup-cache``, and again when ``analyze``
lost ``--profile-parallel``/``--worker-trace-dir`` and the
``parallel-report`` command went, and again when ``serve`` lost
``--no-telemetry`` and ``loadtest`` lost its six daemon flags and made
``--tcp`` required, and again when ``table2`` lost ``--record`` and
``loadtest`` lost ``--record``/``--fail-on``, and again when
``snapshot`` lost ``--no-solution``/``--memory`` and ``diff`` lost
``--perf-threshold``/``--mem-threshold``, and again when the
``loadtest`` command went).  The dispatcher adds
arguments only for the command being run, so these pin that every help
text, usage line and "invalid choice" error is still the same.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import COMMANDS, main

SURFACE = json.loads((Path(__file__).with_name("cli_surface.json")).read_text())
SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: recorded on CPython 3.11; 3.10 and 3.12 print the same bytes, 3.13
#: changed argparse's layout (``-o, --output PATH``)
same_layout = pytest.mark.skipif(
    sys.version_info[:2] not in ((3, 10), (3, 11), (3, 12)),
    reason="argparse help layout of this Python differs from the fixture's",
)


def _run(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("LINES", raising=False)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return {"stdout": out.out, "stderr": out.err, "exit": code}


@same_layout
@pytest.mark.parametrize(
    "case", SURFACE, ids=[" ".join(c["argv"]) or "(none)" for c in SURFACE]
)
def test_surface_is_byte_identical(case, capsys, monkeypatch):
    got = _run(case["argv"], capsys, monkeypatch)
    assert got == {k: case[k] for k in ("stdout", "stderr", "exit")}


def test_fixture_covers_every_command():
    helped = {c["argv"][0] for c in SURFACE if c["argv"][1:] == ["--help"]}
    assert helped == set(COMMANDS)


def test_python_m_repro_cli_still_answers(tmp_path):
    src = tmp_path / "prog.c"
    src.write_text("int g; int *p; int main(void) { p = &g; return 0; }\n")
    store = tmp_path / "prog.store.json"
    assert main(["index", str(src), "-o", str(store)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "query", str(store), "points-to p@main"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("points-to p@main -> ['g']")
