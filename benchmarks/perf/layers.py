"""The traced pass: per-layer numbers for one workload.

After the untraced pass, each of the workload's programs goes through
every layer once in a fresh interpreter (``probe.py``), and a short
serve session (one daemon, reads then edits) runs over the store of the
workload's serve program. Spans stay in memory until the end, then go
out as a Perfetto-loadable Chrome trace plus ``layers.json`` with each
layer's self time.
"""

from __future__ import annotations

import json
import shutil
import time
from collections import defaultdict
from pathlib import Path

from . import workloads
from .common import (
    PROGRAMS,
    PYTHON,
    SRC,
    SpanRecorder,
    chrome_trace,
    load_expected_digests,
    run_child,
    self_times,
)

PROBE = Path(__file__).resolve().parent / "probe.py"

#: the short serve session of the traced pass
SESSION_CLOSED_S = 1.5
SESSION_OPEN_S = 1.5
SESSION_EDITS = 3

#: layers whose summed self time is reported as ``<layer>.s``
TIMED_LAYERS = (
    "startup", "import", "frontend.cpp", "frontend.parse", "frontend.lower",
    "analysis", "query.store.build", "query.store.write", "query.store.load",
    "query.store.verify",
)
#: spans that time ``n`` repetitions of one call: reported in µs per call
PER_CALL_LAYERS = {
    "query.engine.miss": "query.engine.miss_us",
    "query.engine.hit": "query.engine.hit_us",
    "query.server.handle_line": "query.server.handle_line_us",
    "analysis.demand.probe": "analysis.demand.probe_us",
}
SUMMED_COUNTERS = (
    "frontend.ir_nodes", "analysis.lookups", "analysis.lookup_probes",
    "analysis.dom_walk_steps", "analysis.eval_passes", "analysis.ptfs",
    "query.store.bytes",
)


def _probe(out: workloads.Outcome, program: str, seed: int, work: Path) -> dict:
    copy = work / "src" / f"{program}.c"
    shutil.copyfile(PROGRAMS / f"{program}.c", copy)
    spec = {
        "program": program,
        "copy": str(copy),
        "store": str(work / f"{program}.store.json"),
        "out": str(work / f"{program}.probe.json"),
        "src": str(SRC),
        "seed": seed,
    }
    spec_path = work / f"{program}.probe-spec.json"
    spec["spawn"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    run = run_child([PYTHON, str(PROBE), str(spec_path)], work / f"{program}.probe.err")
    doc = None
    if run.returncode in (0, 1) and Path(spec["out"]).exists():
        doc = json.loads(Path(spec["out"]).read_text())
    ok = (
        run.returncode == 0 and doc is not None and not doc["errors"]
        and doc["digest"] == load_expected_digests()[program]
    )
    out.check(ok, f"probe {program}: exit {run.returncode}, "
                  f"{doc['errors'] if doc else ''}\n{run.stderr[-2000:]}")
    return doc


def traced_pass(out: workloads.Outcome, seed: int, work: Path, trace_dir: Path) -> dict:
    """Run the traced pass; returns the per-layer metrics and writes
    ``trace.json`` and ``layers.json`` under ``trace_dir``."""
    work = work / "traced"
    (work / "src").mkdir(parents=True)
    bench = SpanRecorder()
    lanes = []
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counters: dict[str, float] = defaultdict(float)
    index_s = 0.0
    for program in out.traced_programs:
        with bench.span(f"probe {program}"):
            doc = _probe(out, program, seed, work)
        if doc is None:
            continue
        lanes.append((f"{program} (pid {doc['pid']})", doc["pid"], doc["spans"]))
        for name, seconds in self_times(doc["spans"]).items():
            self_s[name] += seconds
        for s in doc["spans"]:
            if "n" in s["args"]:
                calls[s["name"]] += s["args"]["n"]
            if s["name"] == "index":
                index_s += s["end"] - s["start"]
        for name, value in doc["counters"].items():
            counters[name] += value

    # serve-layer numbers the untraced pass did not measure come from a
    # short session over the serve program's store
    program = out.serve_program
    store_path = work / f"{program}.store.json"
    from repro.query import load_store

    store = load_store(str(store_path))
    if "serve.read_qps" not in out.layers:
        with bench.span("serve.reads"):
            workloads.serve_reads(
                out, store_path, store, seed, SESSION_CLOSED_S, SESSION_OPEN_S,
                work, spawns=1,
            )
    if "serve.fresh_attempts" not in out.layers:
        with bench.span("serve.edits"):
            workloads.serve_edits(
                out, work / "src" / f"{program}.c", store_path, store, seed,
                SESSION_EDITS, work, spawns=1,
            )
    lanes.insert(0, ("benchmark", 1, bench.spans))

    layers = {f"{name}.s": self_s[name] for name in TIMED_LAYERS}
    for span_name, metric in PER_CALL_LAYERS.items():
        layers[metric] = self_s[span_name] / max(1, calls[span_name]) * 1e6
    for name in SUMMED_COUNTERS:
        layers[name] = counters[name]
    layers["analysis.lookup_hit_rate"] = (
        counters["analysis.lookup_hits"] / max(1, counters["analysis.lookup_probes"])
    )
    layers["analysis.demand.refresh_s"] = self_s["analysis.demand.refresh"]
    layers["analysis.demand.fixpoint_s"] = self_s["analysis.demand.fixpoint"]
    layers.update(out.layers)
    untraced = sum(out.index_seconds.get(p, 0.0) for p in out.traced_programs)
    layers["trace.index_s"] = index_s
    layers["trace.unattributed_pct"] = self_s["index"] / index_s * 100 if index_s else 0.0
    layers["trace.overhead_pct"] = (index_s - untraced) / untraced * 100 if untraced else 0.0

    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / "trace.json").write_text(json.dumps(chrome_trace(lanes)))
    (trace_dir / "layers.json").write_text(json.dumps({
        "workload": out.workload,
        "seed": seed,
        "self_seconds": dict(sorted(self_s.items())),
        "metrics": layers,
    }, indent=2, sort_keys=True) + "\n")
    return layers
