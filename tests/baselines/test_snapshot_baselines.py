"""The committed baseline snapshots must match a fresh analysis.

A snapshot is a pure function of the program and the options, so a
fresh snapshot of each gated benchmark must equal its committed file
``tests/baselines/snapshots/<name>.json`` byte for byte.  The semantic
differ runs first, so a change that moves a gated digest fails with its
attribution in the failure message: any ``precision-loss``,
``precision-gain`` or ``shape-change`` fails.

If the change is an intended precision improvement, regenerate the
baselines (and review the diff!)::

    for n in allroots grep diff; do
      python -m repro snapshot benchmarks/programs/$n.c \\
        --name $n -o tests/baselines/snapshots/$n.json
    done
"""

import json
import os

import pytest

from repro.bench.harness import analyze_benchmark
from repro.diagnostics.diff import diff_snapshots
from repro.diagnostics.snapshot import (
    SNAPSHOT_FORMAT,
    build_snapshot,
    dump_snapshot,
)
from repro.memory.pointsto import reset_interning

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "snapshots")
GATED = ("allroots", "grep", "diff")


def baseline_text(name):
    with open(os.path.join(BASELINE_DIR, f"{name}.json")) as fh:
        return fh.read()


def load_baseline(name):
    return json.loads(baseline_text(name))


@pytest.mark.parametrize("name", GATED)
def test_fresh_snapshot_matches_committed_baseline(name):
    baseline = load_baseline(name)
    assert baseline["format"] == SNAPSHOT_FORMAT
    reset_interning()
    fresh = build_snapshot(analyze_benchmark(name), program_name=name)
    report = diff_snapshots(baseline, fresh)
    drift = report.classes() & {"precision-loss", "precision-gain", "shape-change"}
    assert not drift, (
        f"{name}: gated digest moved — intended? regenerate the baseline "
        f"(see module docstring).\n" + "\n".join(report.summary_lines())
    )
    assert fresh["digest"]["program"] == baseline["digest"]["program"]
    assert dump_snapshot(fresh) == baseline_text(name)


@pytest.mark.parametrize("name", GATED)
def test_baselines_carry_the_solution(name):
    # fact-level attribution requires the solution section
    baseline = load_baseline(name)
    assert "solution" in baseline
    assert baseline["precision"]["totals"]["total_ptfs"] > 0
