"""CLI coverage for the query subsystem: index / query / serve, plus the
shared ``-``-means-stdout writer convention they ride on."""

import json

import pytest

from repro.cli import main

SOURCE = """
int g;
int *gp;
void set(int **pp, int *v) { *pp = v; }
int use(int *p) { return *p; }
int main(void) {
    int x;
    int *p = &x;
    set(&gp, &g);
    return use(p);
}
"""


@pytest.fixture()
def prog_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


@pytest.fixture()
def store_file(prog_file, tmp_path):
    path = tmp_path / "prog.store.json"
    assert main(["index", prog_file, "-o", str(path)]) == 0
    return str(path)


# -- repro index ------------------------------------------------------------


def test_index_writes_valid_store(store_file):
    from repro.query import load_store

    store = load_store(store_file)
    assert set(store["index"]["procedures"]) == {"main", "set", "use"}
    [src] = store["sources"]
    assert len(src["sha256"]) == 64


def test_index_skips_when_up_to_date(prog_file, store_file, capsys):
    assert main(["index", prog_file, "-o", store_file]) == 0
    err = capsys.readouterr().err
    assert "up to date" in err
    assert "skipping re-analysis" in err


def test_index_force_rebuilds(prog_file, store_file, capsys):
    assert main(["index", prog_file, "-o", store_file, "--force"]) == 0
    err = capsys.readouterr().err
    assert "indexed" in err
    assert "skipping" not in err


def test_index_rebuilds_after_edit(prog_file, store_file, tmp_path, capsys):
    edited = SOURCE.replace("return *p;", "return *p + 1;")
    (tmp_path / "prog.c").write_text(edited)
    assert main(["index", prog_file, "-o", store_file]) == 0
    err = capsys.readouterr().err
    assert "changed   : use" in err
    assert "indexed" in err


def _as_format_1(store_file):
    """Rewrite a store as a ``repro-store/1`` document, sealed so only
    its format tag can be refused."""
    from repro.query import load_store, seal_store, write_store

    store = load_store(store_file)
    store["format"] = "repro-store/1"
    write_store(seal_store(store), store_file)


def test_index_rewrites_format_1_store(prog_file, store_file, capsys):
    """An old-format store is rebuilt, never reported up to date."""
    from repro.query import STORE_FORMAT, load_store

    _as_format_1(store_file)
    capsys.readouterr()
    assert main(["index", prog_file, "-o", store_file]) == 0
    err = capsys.readouterr().err
    assert "up to date" not in err
    assert "indexed" in err
    assert load_store(store_file)["format"] == STORE_FORMAT == "repro-store/2"


def _drop_ir_record(store_file, record):
    """Delete one ``ir`` record and re-seal, so only its absence can be
    refused."""
    from repro.query import load_store, seal_store, write_store

    store = load_store(store_file)
    del store["ir"][record]
    write_store(seal_store(store), store_file)


@pytest.mark.parametrize("record", ["globals", "address_taken", "indirect_callers"])
def test_index_rebuilds_store_missing_an_ir_record(
    prog_file, store_file, capsys, record
):
    from repro.query import load_store

    _drop_ir_record(store_file, record)
    capsys.readouterr()
    assert main(["index", prog_file, "-o", store_file]) == 0
    err = capsys.readouterr().err
    assert "up to date" not in err
    assert "indexed" in err
    assert record in load_store(store_file)["ir"]


def test_index_runs_write_identical_bytes(tmp_path):
    """Two ``repro index`` runs of one source, in fresh processes under
    different hash seeds, write the same bytes: nothing in the store
    depends on the clock or on set iteration order."""
    import os
    import subprocess
    import sys

    import repro
    from repro.bench.programs import program_dir

    src = os.path.join(program_dir(), "grep.c")
    src_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        out = tmp_path / f"seed{seed}.store.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "index", src, "-o", str(out)],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_index_to_stdout(prog_file, capsys):
    assert main(["index", prog_file, "-o", "-"]) == 0
    store = json.loads(capsys.readouterr().out)
    assert store["format"] == "repro-store/2"


# -- repro query ------------------------------------------------------------


def test_query_text_answers(store_file, capsys):
    assert main(["query", store_file, "points-to p@main",
                 "alias p gp@main", "callees main"]) == 0
    out = capsys.readouterr().out
    assert "points-to p@main -> ['x']" in out
    assert "alias p gp @main -> no" in out
    assert "callees main: set, use" in out
    assert "explain: repro explain" in out


def test_query_json_answers(store_file, capsys):
    assert main(["query", store_file, "points-to gp@main", "--json"]) == 0
    [ans] = json.loads(capsys.readouterr().out)
    assert ans["targets"] == ["g"]


def test_query_json_to_file(store_file, tmp_path, capsys):
    out = tmp_path / "answers.json"
    assert main(["query", store_file, "stats", "--json",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    [ans] = json.loads(out.read_text())
    assert ans["op"] == "stats"


def test_query_unknown_var_is_exit_2(store_file, capsys):
    assert main(["query", store_file, "points-to nosuch@main"]) == 2
    assert "no variable named 'nosuch' in 'main'" in capsys.readouterr().err


def test_query_bad_store_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "nope"}))
    assert main(["query", str(bad), "stats"]) == 2


def _unseal(store_file):
    with open(store_file) as fh:
        doc = json.load(fh)
    del doc["integrity"]
    with open(store_file, "w") as fh:
        json.dump(doc, fh)


def test_query_unsealed_store_is_exit_2(store_file, capsys):
    # deleting the integrity record does not turn the tamper check off
    _unseal(store_file)
    assert main(["query", store_file, "stats"]) == 2
    assert "no integrity record" in capsys.readouterr().err


def test_serve_unsealed_store_is_exit_2(store_file, capsys, monkeypatch):
    import io

    _unseal(store_file)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["serve", store_file]) == 2
    assert "no integrity record" in capsys.readouterr().err


def test_query_format_1_store_is_exit_2(store_file, capsys):
    _as_format_1(store_file)
    assert main(["query", store_file, "stats"]) == 2
    err = capsys.readouterr().err
    assert "repro-store/1" in err
    assert "repro index" in err


@pytest.mark.parametrize("record", ["globals", "address_taken", "indirect_callers"])
def test_query_store_missing_an_ir_record_is_exit_2(store_file, capsys, record):
    _drop_ir_record(store_file, record)
    assert main(["query", store_file, "stats"]) == 2
    err = capsys.readouterr().err
    assert f"lacks {record}" in err
    assert "repro index" in err


def test_query_answers_match_fresh_analysis(prog_file, store_file, capsys):
    """The demand path answers exactly what a fresh analyze would."""
    assert main(["query", store_file, "points-to p@main", "--json"]) == 0
    [stored] = json.loads(capsys.readouterr().out)
    assert main(["analyze", prog_file, "--points-to", "main:p"]) == 0
    fresh = capsys.readouterr().out
    assert f"points-to main:p -> {stored['targets']}" in fresh


# -- repro serve (stdio; the TCP path is covered in tests/query) ------------


def test_serve_stdio_round_trip(store_file, capsys, monkeypatch):
    import io

    lines = [
        json.dumps({"op": "ping", "id": 1}),
        json.dumps([{"op": "points_to", "var": "p", "proc": "main", "id": 2},
                    {"op": "points_to", "var": "p", "proc": "main", "id": 3},
                    {"op": "stats", "id": 4}]),
        json.dumps({"op": "shutdown", "id": 5}),
    ]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["serve", store_file]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [env["id"] for env in out] == [1, 2, 3, 4, 5]
    stats = out[3]["result"]
    assert stats["cache_hits"] == 1  # the repeated points_to hit


def test_serve_bad_tcp_spec_is_exit_2(store_file, capsys):
    assert main(["serve", store_file, "--tcp", "nonsense"]) == 2


def test_serve_out_of_range_port_is_exit_2(store_file, capsys):
    # a usage error, not an OverflowError traceback from bind()
    assert main(["serve", store_file, "--tcp", "127.0.0.1:70000"]) == 2
    assert "--tcp takes HOST:PORT" in capsys.readouterr().err


def test_serve_bad_tcp_address_is_exit_2(store_file, capsys):
    assert main(["serve", store_file, "--tcp", "nowhere"]) == 2
    assert "--tcp takes HOST:PORT, got 'nowhere'" in capsys.readouterr().err


def test_serve_no_telemetry_is_a_usage_error(store_file, capsys):
    # the daemon always counts through its telemetry registry
    with pytest.raises(SystemExit) as exc:
        main(["serve", store_file, "--no-telemetry"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-telemetry" in capsys.readouterr().err


def test_serve_metrics_op_over_stdio(store_file, capsys, monkeypatch):
    import io

    lines = [
        json.dumps({"op": "ping", "id": 1}),
        json.dumps({"op": "metrics", "id": 2}),
        json.dumps({"op": "shutdown", "id": 3}),
    ]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["serve", store_file]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    result = out[1]["result"]
    assert result["content_type"] == "text/plain; version=0.0.4"
    assert "# TYPE repro_requests_total counter" in result["text"]


def test_serve_access_log_rotation(store_file, tmp_path, capsys, monkeypatch):
    """--access-log-max-bytes: the daemon's buffered access log rotates
    by size (atomic rename to .1) without dropping or tearing records."""
    import io

    log = tmp_path / "access.log"
    reqs = [json.dumps({"op": "ping", "id": i}) for i in range(120)]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(reqs) + "\n"))
    assert main(
        ["serve", store_file, "--access-log", str(log),
         "--access-log-max-bytes", "2048"]
    ) == 0
    capsys.readouterr()
    rotated = tmp_path / "access.log.1"
    assert log.exists() and rotated.exists()
    for path in (log, rotated):
        for line in path.read_text().splitlines():
            record = json.loads(line)  # whole records on both sides
            assert record["op"] == "ping"


# -- the shared '-'-means-stdout convention (satellite) ---------------------


def test_explain_json_to_file(prog_file, tmp_path, capsys):
    out = tmp_path / "explain.json"
    assert main(["explain", prog_file, "--query", "p@main", "--json",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    [payload] = json.loads(out.read_text())
    assert payload["proc"] == "main" and payload["var"] == "p"


def test_explain_json_stdout_default(prog_file, capsys):
    assert main(["explain", prog_file, "--query", "p@main", "--json"]) == 0
    [payload] = json.loads(capsys.readouterr().out)
    assert payload["var"] == "p"


def test_stats_json_file_and_stdout_agree(prog_file, tmp_path, capsys):
    out = tmp_path / "stats.json"
    assert main(["analyze", prog_file, "--stats-json", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", prog_file, "--stats-json"]) == 0
    stdout_stats = capsys.readouterr().out
    file_stats = json.loads(out.read_text())
    # same keys both ways (values may differ in timings)
    start = stdout_stats.index("{")
    assert set(json.loads(stdout_stats[start:])) == set(file_stats)
