"""The parallel driver: deterministic merge, bit-identical digests.

The acceptance property (ISSUE 6): ``--jobs N`` produces, for every
benchmark, a canonical snapshot digest bit-identical to the sequential
run — parallelism must be a pure scheduling change, invisible in the
results.  The digest covers the full normalized per-procedure PTF
solution plus the resolved call graph, so equality here is equality of
the analysis outcome, not of a summary statistic.
"""

import pytest

from repro.analysis.engine import options_payload
from repro.analysis.parallel import AnalysisTask, BatchResult, run_batch
from repro.bench.programs import PROGRAMS, load_source


def _suite_tasks():
    return [
        AnalysisTask(
            name=prog.name,
            source=load_source(prog.name),
            filename=f"{prog.name}.c",
            keep_snapshot=True,
        )
        for prog in PROGRAMS
    ]


@pytest.fixture(scope="module")
def sequential_batch():
    """The jobs=1 baseline over all 13 benchmarks, computed once."""
    return run_batch(_suite_tasks(), jobs=1)


def test_sequential_batch_is_clean(sequential_batch):
    assert len(sequential_batch.results) == len(PROGRAMS)
    assert not sequential_batch.errors
    for bundle in sequential_batch.results:
        assert bundle["digest"]


@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_digests_bit_identical_to_sequential(
    sequential_batch, jobs
):
    """ISSUE 6 acceptance: every benchmark's whole-program snapshot
    digest under --jobs N equals the sequential one, and results come
    back in task (suite) order regardless of completion order."""
    batch = run_batch(_suite_tasks(), jobs=jobs)
    assert [b["name"] for b in batch.results] == [p.name for p in PROGRAMS]
    assert not batch.errors
    for seq, par in zip(sequential_batch.results, batch.results):
        assert par["digest"] == seq["digest"], par["name"]
        # the whole canonical snapshot agrees, not just its hash
        from repro.diagnostics.snapshot import canonical_bytes

        assert canonical_bytes(par["snapshot"]) == canonical_bytes(
            seq["snapshot"]
        ), par["name"]
    assert batch.stats()["jobs"] == jobs


def test_worker_error_is_isolated():
    """One broken program yields an error bundle; its neighbors in the
    same batch are unaffected (fault-isolation discipline)."""
    tasks = [
        AnalysisTask(name="ok", source="int main(void){return 0;}",
                     filename="ok.c"),
        AnalysisTask(name="broken", source="int main(void { syntax",
                     filename="broken.c"),
        AnalysisTask(name="nomain", source="int helper(void){return 1;}",
                     filename="nomain.c"),
    ]
    batch = run_batch(tasks, jobs=2)
    by_name = {b["name"]: b for b in batch.results}
    assert not by_name["ok"].get("error")
    assert by_name["broken"]["error"]
    assert by_name["nomain"]["error"] == "no analyzable main procedure"
    assert len(batch.errors) == 2


def test_options_cross_the_process_boundary():
    """Non-default scalar options reach the worker (the ignore policy
    changes externals handling, observable in the digest)."""
    from repro.analysis.engine import AnalyzerOptions

    src = """
    extern void mystery(int *p);
    int g;
    int main(void) { int *p = &g; mystery(p); return 0; }
    """
    payload = options_payload(AnalyzerOptions(external_policy="ignore"))
    assert payload == {"external_policy": "ignore"}
    task_h = AnalysisTask(name="t", source=src, filename="t.c")
    task_i = AnalysisTask(name="t", source=src, filename="t.c",
                          options=payload)
    havoc = run_batch([task_h], jobs=2).results[0]
    ignore = run_batch([task_i], jobs=2).results[0]
    assert not havoc.get("error") and not ignore.get("error")
    assert havoc["digest"] != ignore["digest"]


def test_bundle_carries_the_snapshot_only_when_asked():
    """``repro index --jobs`` bundles ship the store and the digest; only
    ``repro analyze --snapshot-dir`` asks for the whole snapshot."""
    src = "int g; int main(void) { int *p = &g; return *p; }"
    index_task = AnalysisTask(name="m", source=src, filename="m.c",
                              build_store=True)
    snap_task = AnalysisTask(name="m", source=src, filename="m.c",
                             keep_snapshot=True)
    indexed, snapped = run_batch([index_task, snap_task], jobs=1).results
    assert "snapshot" not in indexed
    assert indexed["store"]["snapshot"]["digest"]["program"] == indexed["digest"]
    assert "store" not in snapped
    assert snapped["snapshot"]["digest"]["program"] == snapped["digest"]
    assert indexed["digest"] == snapped["digest"]


def test_batch_tasks_keep_snapshots_only_for_snapshot_dir():
    import argparse

    from repro.commands.shared import batch_tasks

    def tasks(**kw):
        return batch_tasks(argparse.Namespace(files=["a.c", "b.c"], **kw), None)

    assert not any(t.keep_snapshot for t in tasks())  # repro index
    assert all(t.keep_snapshot for t in tasks(snapshot_dir="snaps"))
    assert not any(t.keep_snapshot for t in tasks(snapshot_dir=None))


def test_batch_stats_shape():
    batch = run_batch(
        [AnalysisTask(name="m", source="int main(void){return 0;}",
                      filename="m.c")],
        jobs=1,
    )
    stats = batch.stats()
    for key in ("jobs", "workers", "programs", "errors",
                "elapsed_seconds", "worker_seconds", "utilization",
                "critical_path_seconds"):
        assert key in stats, key
    assert stats["programs"] == 1
    assert stats["errors"] == 0
    assert isinstance(batch, BatchResult)


def test_parallel_batch_stats_from_bundle_wall_times():
    """Under jobs=2 the batch stats come from bundle wall times: the
    share of pool capacity spent in workers, and the slowest program."""
    tasks = [
        AnalysisTask(name=name, source=load_source(name),
                     filename=f"{name}.c")
        for name in ("allroots", "diff")
    ]
    batch = run_batch(tasks, jobs=2)
    assert [b["name"] for b in batch.results] == ["allroots", "diff"]
    assert not batch.errors
    stats = batch.stats()
    assert stats["jobs"] == 2 and stats["programs"] == 2
    assert 0 < stats["utilization"] <= 1.0
    assert stats["critical_path_seconds"] > 0
    assert set(stats) == {
        "jobs", "workers", "programs", "errors", "elapsed_seconds",
        "worker_seconds", "utilization", "critical_path_seconds",
    }


def test_tracer_records_batch_span_and_shard_events():
    from repro.diagnostics import Tracer
    from repro.diagnostics.trace import EVENT_VOCABULARY

    tracer = Tracer()
    run_batch(
        [AnalysisTask(name="m", source="int main(void){return 0;}",
                      filename="m.c")],
        jobs=1,
        tracer=tracer,
    )
    names = [e["name"] for e in tracer.events]
    assert "parallel" in names
    assert "shard.dispatch" in names
    assert "shard.done" in names
    for name in ("parallel", "shard.dispatch", "shard.done"):
        assert name in EVENT_VOCABULARY


#: small benchmarks whose stores carry PTF uids in their alias tables
INDEXED = ("allroots", "grep", "diff", "alvinn", "ear")


def test_index_jobs_stores_equal_single_file_stores(tmp_path):
    """A store from ``repro index --jobs 2`` is byte-identical to the
    store of a single-file ``repro index`` of the same program in a
    fresh process, whichever worker ran it and whatever that worker ran
    before."""
    import os
    import subprocess
    import sys

    import repro
    from repro.bench.programs import program_dir
    from repro.cli import main

    paths = [os.path.join(program_dir(), f"{name}.c") for name in INDEXED]
    batch_dir = tmp_path / "batch"
    assert main(["index", *paths, "--jobs", "2", "-o", str(batch_dir)]) == 0
    env = dict(os.environ)
    src_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    for name, path in zip(INDEXED, paths):
        single = tmp_path / f"{name}.store.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "index", path, "--name", name,
             "-o", str(single)],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        batch_store = batch_dir / f"{name}.store.json"
        assert batch_store.read_bytes() == single.read_bytes(), name
