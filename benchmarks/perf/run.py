"""Performance benchmark of the analyzer and its query daemon.

Run from the root of a checkout::

    python3 benchmarks/perf/run.py --workload cli-small --seed 0 --seconds 25 --trace 0

It drives the product only from outside (``python -m repro index |
query | serve`` children; with ``--trace 1`` also a probe script that
calls the public layer functions), prints every metric by name with its
unit, checks every output, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same untraced pass and then a traced pass, and
reports the per-layer metrics (trace files go to ``--trace-dir``).
``--repeat N`` runs each workload N times on seeds SEED..SEED+N-1 and
reports each metric's median and quartiles. The exit code is 0 when
every operation succeeded, 1 when any failed, 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf import common  # noqa: E402


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    with open(common.BENCHMARK_JSON, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in doc[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def run_once(workload: str, seed: int, seconds: float, trace: bool, trace_dir: Path):
    """One workload, one seed; returns (outcome, metrics by name)."""
    from benchmarks.perf import layers, workloads

    work = common.make_workdir(workload)
    try:
        out = workloads.WORKLOADS[workload](seed, seconds, work)
        values = dict(out.metrics)
        if trace and not out.failed:
            values = layers.traced_pass(out, seed, work, trace_dir / workload)
        return out, values
    finally:
        shutil.rmtree(work, ignore_errors=True)


def metric_doc(values: dict, units: dict) -> dict:
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items() if name in values
    }


def report(workload: str, out, values: dict, units: dict) -> None:
    print(f"== {workload}")
    for name, unit in units.items():
        if name in values:
            n = out.samples.get(name)
            count = f"  (n={n})" if n and name in out.metrics else ""
            print(f"  {name:32s} {values[name]:14.6g} {unit}{count}")
    rate = out.failed / out.attempted if out.attempted else 0.0
    print(f"  {'error_rate':32s} {rate:14.6g} ({out.failed} failed of "
          f"{out.attempted} attempted)")
    for err in out.errors:
        print(f"  error: {err}", file=sys.stderr)


def main(argv=None) -> int:
    from benchmarks.perf.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured window per run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced pass, report per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=common.ROOT / ".perf_trace",
                        help="where the traced pass writes trace.json and layers.json")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload on consecutive seeds")
    parser.add_argument("--out", type=Path, help="also write the result document here")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)

    try:
        common.check_checkout()
        common.import_repro()
        units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
        runs: dict[str, list[dict]] = {name: [] for name in names}
        attempted = failed = 0
        for name in names:
            for i in range(args.repeat):
                out, values = run_once(
                    name, args.seed + i, args.seconds, bool(args.trace), args.trace_dir
                )
                report(name, out, values, units)
                attempted += out.attempted
                failed += out.failed
                runs[name].append(values)
    except common.BenchmarkError as exc:  # no result without a product to run
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a run that cannot complete prints no result
        traceback.print_exc()
        return 2

    if args.repeat > 1:
        metrics = {}
        for name, vs in runs.items():
            print(f"== {name}: {len(vs)} runs, seeds {args.seed}..{args.seed + len(vs) - 1}")
            metrics[name] = _spread(vs, units)
    elif len(names) == 1:
        metrics = metric_doc(runs[names[0]][0], units)
    else:
        metrics = {name: metric_doc(vs[0], units) for name, vs in runs.items()}
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps(doc, sort_keys=True))
    return 0 if failed == 0 else 1


def _spread(values: list[dict], units: dict) -> dict:
    """Per metric: median, quartiles and their distance as a share of
    the median, over the repeated runs."""
    out = {}
    for name, unit in units.items():
        vs = [v[name] for v in values if name in v]
        if not vs:
            continue
        q1, q2, q3 = common.quartiles(vs)
        print(f"  {name:32s} median {q2:12.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {(q3 - q1) / q2 if q2 else 0.0:.3f}")
        out[name] = {"unit": unit, "median": q2, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / q2 if q2 else 0.0, "values": vs}
    return out


if __name__ == "__main__":
    sys.exit(main())
