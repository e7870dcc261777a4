"""One program through every layer, in a fresh interpreter, with a span
around each public call. The traced pass runs it as::

    python3 benchmarks/perf/probe.py SPEC.json

SPEC names the program, a scratch copy of its source (edited and then
restored here), the store and output paths, the seed, and the
monotonic time at which the parent spawned this process. The output
JSON holds the spans, the layer counters, the store's program digest
and any errors.

The ``index`` root span runs from spawn to the written store and covers
what ``repro index --force`` does, one layer per child span.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: in-process requests per engine/server measurement
REQUESTS = 2000
HIT_SET = 200
HIT_PASSES = 5
PROBES = 1000


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from common import SpanRecorder  # sibling module: no package here
    from edits import EDIT_VAR, edit_sequence, edit_target, apply_edit, eligible_procedures

    rec = SpanRecorder()
    errors: list[str] = []
    copy = spec["copy"]
    filename = os.path.basename(copy)
    store_path = spec["store"]

    with rec.span("index", start=spec["spawn"], program=spec["program"]):
        rec.add("startup", spec["spawn"], STARTED)
        with rec.span("import"):
            import pycparser

            import repro.cli  # noqa: F401  (what `python -m repro` loads)
            from repro.analysis.engine import AnalyzerOptions
            from repro.analysis.results import run_analysis
            from repro.frontend.cpp import Preprocessor
            from repro.frontend.lower import Lowerer
            from repro.query import build_store, write_store
        with open(copy, encoding="utf-8") as fh:
            source = fh.read()
        with rec.span("frontend.cpp"):
            text = Preprocessor(
                include_paths=[os.path.dirname(os.path.abspath(copy))]
            ).preprocess(source, filename)
        with rec.span("frontend.parse"):
            ast = pycparser.CParser().parse(text, filename)
        with rec.span("frontend.lower"):
            lowerer = Lowerer("<project>")
            lowerer.lower(ast)
            program = lowerer.program
            program.frontend_failures = []
            program.source_lines = source.count("\n") + 1
            program.finalize()
        options = AnalyzerOptions()
        with rec.span("analysis"):
            result = run_analysis(program, options)
        with rec.span("query.store.build"):
            store = build_store(
                result, options=options, program_name=spec["program"],
                sources=[copy],
            )
        with rec.span("query.store.write"):
            write_store(store, store_path)

    stats = result.analyzer.stats_dict()
    c = stats["counters"]
    counters = {
        "frontend.ir_nodes": program.stats()["nodes"],
        "analysis.lookups": c["lookups"],
        "analysis.lookup_hits": c["cache_hits"],
        "analysis.lookup_probes": c["cache_hits"] + c["cache_misses"],
        "analysis.dom_walk_steps": c["dom_walk_steps"],
        "analysis.eval_passes": c["eval_passes"],
        "analysis.ptfs": stats["memory"]["ptf_store"]["ptfs"],
        "query.store.bytes": os.path.getsize(store_path),
    }

    from repro.analysis.demand import DemandTier
    from repro.bench.loadgen import build_workload
    from repro.diagnostics.telemetry import TelemetryRegistry
    from repro.query import QueryEngine, QueryError, load_store
    from repro.query.server import QueryServer
    from repro.query.store import verify_store_integrity

    with rec.span("query.store.load"):
        loaded = load_store(store_path, verify=False)
    with rec.span("query.store.verify"):
        verify_store_integrity(loaded)

    requests = build_workload(loaded, REQUESTS, repeat_half=False, seed=spec["seed"])
    probe_engine = QueryEngine(loaded, cache_size=0)
    answerable = []
    for req in requests:
        try:
            probe_engine.query(dict(req))
        except QueryError:
            continue
        answerable.append(req)
    requests = answerable
    counters["query.engine.requests"] = len(requests)

    engine = QueryEngine(loaded, cache_size=0)
    batch = [dict(r) for r in requests]
    with rec.span("query.engine.miss", n=len(batch)):
        for req in batch:
            engine.query(req)

    distinct = list({json.dumps(r, sort_keys=True): r for r in requests}.values())[:HIT_SET]
    engine = QueryEngine(loaded, cache_size=256)
    for req in distinct:
        engine.query(dict(req))
    batch = [dict(r) for r in distinct] * HIT_PASSES
    with rec.span("query.engine.hit", n=len(batch)):
        for req in batch:
            engine.query(req)

    server = QueryServer(QueryEngine(loaded, cache_size=256), telemetry=TelemetryRegistry())
    lines = [json.dumps(r) for r in requests]
    with rec.span("query.server.handle_line", n=len(lines)):
        for line in lines:
            server.handle_line(line)

    tier = DemandTier(loaded)
    if tier.probe() != "fresh":
        errors.append("demand tier: pristine sources probe stale")
    with rec.span("analysis.demand.probe", n=PROBES):
        for _ in range(PROBES):
            tier.probe()

    proc = edit_sequence(eligible_procedures(source, loaded["call_graph"]), 1, spec["seed"])[0]
    tmp = copy + ".edit.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(apply_edit(source, proc, 1))
    os.replace(tmp, copy)
    with rec.span("analysis.demand.refresh", proc=proc):
        verdict = tier.probe()
    counters["analysis.demand.stale_procs"] = tier.stats()["stale_procs"]
    with rec.span("analysis.demand.fixpoint", proc=proc):
        answer = tier.answer({"op": "points_to", "var": EDIT_VAR, "proc": proc})
    if verdict != "stale" or answer.get("targets") != [edit_target(1)]:
        errors.append(f"edit in {proc}: verdict {verdict}, answer {answer.get('targets')}")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(source)
    os.replace(tmp, copy)

    doc = {
        "pid": os.getpid(),
        "spans": rec.spans,
        "counters": counters,
        "digest": store["snapshot"]["digest"]["program"],
        "errors": errors,
    }
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
