"""Harness concurrency features: --jobs rows and process-group kill.

Two ISSUE 6 satellites live here: the parallel Table-2 batch must
produce the same stable measurement columns as the sequential harness,
and ``--per-program-timeout`` must kill the *whole process group* on
expiry — ``subprocess.run(timeout=...)`` only kills the direct child,
leaving any grandchild running after the ERROR row is already printed.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.bench.harness import _run_isolated, table2_rows


def test_jobs_rows_match_sequential_columns():
    names = ["allroots", "diff"]
    seq = table2_rows(names=names)
    par = table2_rows(names=names, jobs=2)
    assert [r.name for r in par] == [r.name for r in seq]
    for s, p in zip(seq, par):
        assert p.error == "" and s.error == ""
        # result columns agree exactly; perf counters (dom_walk_steps,
        # cache_hit_rate, seconds) are process-state sensitive — the
        # sequential loop reuses one process's intern tables across
        # programs — and are deliberately excluded, as a snapshot
        # records no counters
        assert (p.lines, p.procedures, p.avg_ptfs) == (
            s.lines, s.procedures, s.avg_ptfs
        )
        assert p.status == s.status


def test_jobs_error_isolation():
    """A bad name filter still yields deterministic suite ordering; and
    a worker crash shows up as an ERROR row, not a dead batch (exercised
    through the driver's fault bundles)."""
    rows = table2_rows(names=["allroots"], jobs=2)
    assert len(rows) == 1 and rows[0].status == "ok"


def test_run_isolated_passes_through_success(tmp_path):
    code, out, err = _run_isolated(
        [sys.executable, "-c", "print('ok'); import sys; sys.exit(3)"],
        timeout=30,
        env=dict(os.environ),
    )
    assert code == 3
    assert out.strip() == "ok"


def test_timeout_kills_whole_process_group(tmp_path):
    """The child spawns a grandchild and both sleep; on timeout the kill
    must reap the grandchild too (the old ``subprocess.run`` pattern
    left it running as an orphan)."""
    pid_file = tmp_path / "grandchild.pid"
    child_code = (
        "import subprocess, sys, time\n"
        "p = subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(120)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(p.pid))\n"
        "time.sleep(120)\n"
    )
    start = time.monotonic()
    with pytest.raises(subprocess.TimeoutExpired):
        _run_isolated(
            [sys.executable, "-c", child_code],
            timeout=2.0,
            env=dict(os.environ),
        )
    assert time.monotonic() - start < 60
    gc_pid = int(pid_file.read_text())
    # the grandchild must be gone (allow a moment for the SIGKILL to land)
    for _ in range(50):
        try:
            os.kill(gc_pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.1)
    else:
        os.kill(gc_pid, 9)  # clean up before failing
        pytest.fail(f"grandchild {gc_pid} survived the group kill")
