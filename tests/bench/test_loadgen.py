"""Load generator tests (``repro loadtest``).

A loadtest reports qps and latency quantiles for one run against a
running daemon; its only gates are absolute (``--max-p99-ms``, the chaos
accounting).  Run-over-run comparison belongs to the repo benchmark
(``benchmarks/perf``).
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro import AnalyzerOptions, analyze_source
from repro.bench.loadgen import (
    DEFAULT_MIX,
    build_workload,
    parse_mix,
    run_loadtest,
)
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


@pytest.fixture(scope="module")
def store_file(store, tmp_path_factory):
    path = tmp_path_factory.mktemp("loadgen") / "store.json"
    path.write_text(json.dumps(store))
    return str(path)


@pytest.fixture()
def addr(store, daemon):
    """The running daemon over ``store``."""
    return daemon(store)[1]


@pytest.fixture()
def tcp(addr):
    """``addr`` as the ``--tcp HOST:PORT`` argument."""
    return ["--tcp", "%s:%d" % addr]


# -- mix / workload ---------------------------------------------------------


def test_parse_mix_default_and_custom():
    assert parse_mix(None) == DEFAULT_MIX
    assert parse_mix("points_to=4,alias") == {"points_to": 4, "alias": 1}
    # dashes normalize to the op names the daemon speaks
    assert parse_mix("points-to=2") == {"points_to": 2}


def test_parse_mix_rejects_garbage():
    with pytest.raises(ValueError):
        parse_mix("frobnicate=3")
    with pytest.raises(ValueError):
        parse_mix("points_to=lots")
    with pytest.raises(ValueError):
        parse_mix("points_to=0")  # all-zero weights leave nothing to draw


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


def test_build_workload_honors_mix(store):
    wl = build_workload(store, 30, mix={"modref": 1}, seed=3)
    assert {req["op"] for req in wl} == {"modref"}


# -- the harness ------------------------------------------------------------


def test_run_loadtest_in_process(store_file, addr):
    """The report's shape, against a daemon on a thread of this process."""
    report = run_loadtest(store_file, addr, clients=4,
                          requests_per_client=20, seed=0)
    payload = report.as_dict()
    assert payload["program"] == "loadgen"
    assert payload["requests"] == 80
    assert payload["clients"] == 4
    assert payload["errors"] == 0
    assert payload["qps"] > 0
    latency = payload["latency"]
    for key in ("p50_ms", "p90_ms", "p95_ms", "p99_ms", "max_ms"):
        assert latency[key] is not None and latency[key] > 0
    assert latency["p50_ms"] <= latency["p99_ms"] <= latency["max_ms"]
    # repeat-half + shared LRU must produce real cache hits
    assert payload["cache_hits"] > 0
    assert payload["cache_hit_rate"] > 0
    assert sum(payload["ops"].values()) == 80


def test_run_loadtest_against_external_daemon(store_file):
    """Drive a ``repro serve --tcp`` daemon in its own process."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", store_file,
         "--tcp", "127.0.0.1:0"],
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        cwd=root,
    )
    try:
        announce = proc.stderr.readline()
        assert "repro: serving loadgen on " in announce, announce
        host, _, port = announce.strip().rpartition(" ")[2].rpartition(":")
        report = run_loadtest(store_file, (host, int(port)), clients=2,
                              requests_per_client=10)
        assert report.as_dict()["requests"] == 20
        assert report.as_dict()["errors"] == 0
        proc.send_signal(signal.SIGTERM)
        proc.stderr.read()
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait()


def test_cache_figures_are_per_run(store_file, addr):
    """Two runs against one daemon: each report counts only its own
    LRU hits and misses, not the daemon's cumulative totals."""
    reports = [
        run_loadtest(store_file, addr, clients=2, requests_per_client=10,
                     seed=0).as_dict()
        for _ in range(2)
    ]
    for report in reports:
        assert report["requests"] == 20
        assert report["cache_hits"] + report["cache_misses"] <= 20
    # the second run asks only what the first one cached
    assert reports[1]["cache_misses"] == 0
    assert reports[1]["cache_hits"] > 0


# -- CLI --------------------------------------------------------------------


def test_cli_loadtest_text_and_json(store_file, tcp, tmp_path, capsys):
    assert main(["loadtest", store_file, *tcp, "--clients", "2",
                 "--requests", "10"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out and "p99" in out
    json_path = tmp_path / "report.json"
    assert main(["loadtest", store_file, *tcp, "--clients", "2",
                 "--requests", "10", "--json", "-o", str(json_path)]) == 0
    payload = json.loads(json_path.read_text())
    assert payload["requests"] == 20 and payload["latency"]["p99_ms"] > 0


def test_cli_loadtest_max_p99_gate(store_file, tcp, capsys):
    # sub-microsecond budget: impossible over a real socket
    assert main(["loadtest", store_file, *tcp, "--clients", "2",
                 "--requests", "10", "--max-p99-ms", "0.000001"]) == 1
    assert "loadtest gate failed" in capsys.readouterr().err
    assert main(["loadtest", store_file, *tcp, "--clients", "2",
                 "--requests", "10", "--max-p99-ms", "60000"]) == 0


@pytest.mark.parametrize("flag", [
    ["--clients", "0"],
    ["--requests", "-3"],
])
def test_cli_loadtest_rejects_empty_runs(store_file, tcp, flag, capsys):
    # a run that sends nothing would report "0 requests" and pass a
    # gate without --max-p99-ms; against a live daemon it is refused
    assert main(["loadtest", store_file, *tcp, *flag]) == 2
    captured = capsys.readouterr()
    assert f"{flag[0]} must be at least 1, got {flag[1]}" in captured.err
    assert "throughput" not in captured.out


def test_cli_loadtest_bad_mix(store_file, capsys):
    assert main(["loadtest", store_file, "--tcp", "127.0.0.1:1",
                 "--mix", "bogus=1"]) == 2
    assert "unknown op" in capsys.readouterr().err


def test_cli_loadtest_bad_tcp_address(store_file, capsys):
    assert main(["loadtest", store_file, "--tcp", "nowhere"]) == 2
    assert "--tcp takes HOST:PORT" in capsys.readouterr().err


def test_cli_loadtest_requires_tcp(store_file, capsys):
    """The load generator only drives a daemon it did not start."""
    with pytest.raises(SystemExit) as exc:
        main(["loadtest", store_file])
    assert exc.value.code == 2
    assert "the following arguments are required: --tcp" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("flag", [
    ["--deadline", "1"],
    ["--cache-size", "8"],
    ["--serve-faults", "seed=1"],
    ["--rate-limit", "10"],
    ["--burst", "5"],
    ["--max-in-flight", "2"],
])
def test_cli_loadtest_daemon_flags_are_usage_errors(store_file, flag,
                                                    capsys):
    # the daemon's own flags belong to 'repro serve'
    with pytest.raises(SystemExit) as exc:
        main(["loadtest", store_file, "--tcp", "127.0.0.1:1", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    ["--record"],
    ["--fail-on", "p99:100%"],
])
def test_cli_loadtest_retired_record_flags_are_usage_errors(store_file, flag,
                                                            capsys):
    # run-over-run comparison lives in benchmarks/perf, not in loadtest
    with pytest.raises(SystemExit) as exc:
        main(["loadtest", store_file, "--tcp", "127.0.0.1:1", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
