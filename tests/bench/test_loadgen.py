"""Load generator + serve trajectory tests (BENCH_serve.json).

The acceptance pair lives here: a loadtest reports qps and latency
quantiles and appends a trajectory entry, and the CI gate turns an
injected 5x p99 latency regression into a nonzero exit.
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
from repro.bench.trajectory import (
    SERVE_TRAJECTORY_FORMAT,
    build_serve_entry,
    compare_serve_entries,
    load_serve_trajectory,
    parse_serve_fail_on,
    record_serve_trajectory,
    serve_gate,
)
from repro.cli import main
from repro.query import QueryEngine, build_store

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


# -- serve trajectory -------------------------------------------------------


def fake_report(p99=10.0, p50=2.0, qps=1000.0, **kwargs):
    report = {
        "program": "loadgen",
        "clients": 8,
        "requests": 400,
        "errors": 0,
        "seconds": 0.4,
        "qps": qps,
        "latency": {"p50_ms": p50, "p90_ms": p99 / 2, "p95_ms": p99 / 1.5,
                    "p99_ms": p99, "max_ms": p99 * 2},
        "cache_hits": 180,
        "cache_misses": 220,
        "cache_hit_rate": 0.45,
        "ops": {"points_to": 300, "alias": 100},
    }
    report.update(kwargs)
    return report


def test_record_and_load_round_trip(tmp_path):
    path = str(tmp_path / "BENCH_serve.json")
    entry, drift, failures = record_serve_trajectory(
        fake_report(), path=path, revision="aaa"
    )
    assert entry["revision"] == "aaa"
    assert drift == [] and failures == []
    data = load_serve_trajectory(path)
    assert data["format"] == SERVE_TRAJECTORY_FORMAT
    assert len(data["entries"]) == 1


def test_drift_lines_on_regression(tmp_path):
    a = build_serve_entry(fake_report(p99=10.0, qps=1000.0), revision="a")
    b = build_serve_entry(fake_report(p99=20.0, qps=600.0), revision="b")
    lines = compare_serve_entries(a, b)
    assert any("p99 slower" in l for l in lines)
    assert any("throughput down" in l for l in lines)


def test_shape_change_suppresses_deltas():
    a = build_serve_entry(fake_report(), revision="a")
    b = build_serve_entry(fake_report(clients=64, qps=1.0, p99=500.0),
                          revision="b")
    lines = compare_serve_entries(a, b)
    assert len(lines) == 1 and "run shape changed" in lines[0]
    # the gate resets on a shape change instead of firing spuriously
    assert serve_gate(a, b, {"p99": 1.0, "qps": 0.3}) == []


def test_parse_serve_fail_on():
    assert parse_serve_fail_on(None) is None
    assert parse_serve_fail_on("p99:100%,qps:30%") == {"p99": 1.0,
                                                       "qps": 0.3}
    with pytest.raises(ValueError):
        parse_serve_fail_on("p42:10%")
    with pytest.raises(ValueError):
        parse_serve_fail_on("p99:soon")
    with pytest.raises(ValueError):
        parse_serve_fail_on("p99:-5%")


def test_gate_fails_on_injected_5x_latency_regression(tmp_path):
    """The PR acceptance check: a 5x p99 regression against the
    previous comparable entry must fail the gate (and still be
    recorded — the history has to show what the gate caught)."""
    path = str(tmp_path / "BENCH_serve.json")
    record_serve_trajectory(fake_report(p99=10.0), path=path, revision="a")
    entry, drift, failures = record_serve_trajectory(
        fake_report(p99=50.0), path=path,
        fail_on=parse_serve_fail_on("p99:100%,qps:30%"), revision="b"
    )
    assert any("p99 latency regressed" in f for f in failures)
    assert len(load_serve_trajectory(path)["entries"]) == 2


def test_gate_fails_on_throughput_collapse(tmp_path):
    path = str(tmp_path / "BENCH_serve.json")
    record_serve_trajectory(fake_report(qps=1000.0), path=path, revision="a")
    _, _, failures = record_serve_trajectory(
        fake_report(qps=200.0), path=path, fail_on={"qps": 0.3},
        revision="b"
    )
    assert any("throughput dropped" in f for f in failures)


def test_gate_passes_within_threshold(tmp_path):
    path = str(tmp_path / "BENCH_serve.json")
    record_serve_trajectory(fake_report(p99=10.0), path=path, revision="a")
    _, _, failures = record_serve_trajectory(
        fake_report(p99=15.0), path=path, fail_on={"p99": 1.0},
        revision="b"
    )
    assert failures == []


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


def test_cli_loadtest_record_and_injected_regression(store_file, tcp,
                                                     tmp_path, capsys):
    """End-to-end gate demonstration through the CLI: record a baseline,
    rewrite it to claim the daemon used to be 5x faster, and watch
    ``--fail-on`` turn the next (real) run into exit 1."""
    path = tmp_path / "BENCH_serve.json"
    args = ["loadtest", store_file, *tcp, "--clients", "4", "--requests", "30",
            "--record", str(path), "--fail-on", "p99:100%,qps:30%"]
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "recorded serve entry" in err
    # inject the regression: the baseline claims 5x lower latency and
    # 5x higher throughput than this machine actually delivers
    data = json.loads(path.read_text())
    report = data["entries"][-1]["report"]
    for key in ("p50_ms", "p90_ms", "p95_ms", "p99_ms", "max_ms"):
        report["latency"][key] = report["latency"][key] / 5.0
    report["qps"] = report["qps"] * 5.0
    path.write_text(json.dumps(data))
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "serve gate failed" in err
    # the regressed run is still recorded: the history shows the catch
    assert len(json.loads(path.read_text())["entries"]) == 2


def test_cli_loadtest_fail_on_requires_record(store_file, tcp, capsys):
    assert main(["loadtest", store_file, *tcp, "--clients", "1",
                 "--requests", "4", "--fail-on", "p99:100%"]) == 2
    assert "--fail-on requires --record" in capsys.readouterr().err


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
