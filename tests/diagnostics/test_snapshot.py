"""Snapshot determinism and canonicalization tests.

The acceptance property of the regression observatory: the canonical
half of a snapshot is a pure function of (program, semantics-affecting
options).  Back-to-back runs must produce byte-identical canonical
bytes; the memos must not move the digest (the uncached sparse state of
:mod:`tests.memory.uncached_oracle` reproduces it); semantic knobs
(``max_ptfs_total``) must.

Same-process caveat (documented in the module): block uids seed
set-iteration order inside the engine, so every re-analysis here calls
:func:`repro.memory.pointsto.reset_interning` first — exactly what a
fresh process (the CLI) gets for free.
"""

import io
import json

import pytest

from repro.analysis.engine import AnalyzerOptions
from repro.bench.harness import analyze_benchmark
from repro.bench.programs import PROGRAMS
from repro.diagnostics.snapshot import (
    SNAPSHOT_FORMAT,
    build_snapshot,
    canonical_bytes,
    dump_snapshot,
    load_snapshot,
    solution_of,
    write_snapshot,
)
from repro.memory.pointsto import SparseState, reset_interning

from ..memory.dense_oracle import use_state
from ..memory.uncached_oracle import UncachedSparseState

ALL_NAMES = [p.name for p in PROGRAMS]


def snap_of(name, state=SparseState, **option_kwargs):
    reset_interning()
    options = AnalyzerOptions(**option_kwargs)
    with use_state(state):
        result = analyze_benchmark(name, options)
    return build_snapshot(result, options=options, program_name=name)


class TestDeterminism:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_back_to_back_runs_are_byte_identical(self, name):
        a = snap_of(name)
        b = snap_of(name)
        assert a["digest"]["program"] == b["digest"]["program"]
        assert canonical_bytes(a) == canonical_bytes(b)

    @pytest.mark.parametrize("name", ["allroots", "grep", "compress"])
    def test_lookup_cache_does_not_move_the_digest(self, name):
        # pure memoization: the memos change counters (volatile) but
        # provably not the canonical half
        cached = snap_of(name)
        uncached = snap_of(name, state=UncachedSparseState)
        assert cached["digest"]["program"] == uncached["digest"]["program"]
        assert canonical_bytes(cached) == canonical_bytes(uncached)

    def test_max_ptfs_does_move_the_digest(self):
        # semantic knob: §8 generalization force-merges contexts, so the
        # solution — and therefore the digest — must change
        free = snap_of("allroots")
        capped = snap_of("allroots", max_ptfs_total=1)
        assert free["digest"]["program"] != capped["digest"]["program"]
        assert canonical_bytes(free) != canonical_bytes(capped)

    def test_options_are_recorded_but_unhashed(self):
        # provenance: the option shows up in the (unhashed) options
        # record, and the digest is reproducible under it
        snap = snap_of("allroots", max_passes=500)
        assert snap["options"] == {"max_passes": 500}
        again = snap_of("allroots", max_passes=500)
        assert snap["digest"]["program"] == again["digest"]["program"]


class TestCanonicalization:
    def test_volatile_and_options_are_excluded_from_canonical_bytes(self):
        snap = snap_of("allroots")
        mutated = json.loads(json.dumps(snap))
        mutated["volatile"]["perf"]["elapsed_seconds"] = 999.0
        mutated["volatile"]["memory"]["tracemalloc_peak_kb"] = 12345.0
        mutated["options"]["max_passes"] = 1
        assert canonical_bytes(mutated) == canonical_bytes(snap)

    def test_digest_covers_solution_and_call_graph(self):
        snap = snap_of("allroots")
        mutated = json.loads(json.dumps(snap))
        mutated["solution"]["main"] = []
        # the digest is computed at build time; recomputing over a
        # doctored solution must disagree
        from repro.diagnostics.snapshot import _digest

        redone = _digest(mutated["solution"], mutated["call_graph"])
        assert redone["program"] != snap["digest"]["program"]

    def test_per_procedure_digests_cover_every_procedure(self):
        snap = snap_of("allroots")
        assert set(snap["digest"]["procedures"]) == set(snap["solution"])
        assert snap["precision"]["totals"]["procedures"] == len(snap["solution"])

    def test_slim_snapshot_keeps_the_digest(self):
        reset_interning()
        result = analyze_benchmark("allroots")
        full = build_snapshot(result, program_name="allroots")
        reset_interning()
        result2 = analyze_benchmark("allroots")
        slim = build_snapshot(
            result2, program_name="allroots", include_solution=False
        )
        assert "solution" not in slim
        assert slim["digest"]["program"] == full["digest"]["program"]

    def test_solution_is_sorted_at_every_level(self):
        reset_interning()
        result = analyze_benchmark("allroots")
        sol = solution_of(result)
        assert list(sol) == sorted(sol)
        for payloads in sol.values():
            keys = [json.dumps(p, sort_keys=True) for p in payloads]
            assert keys == sorted(keys)
            for p in payloads:
                for targets in p["final"].values():
                    assert targets == sorted(targets)


class TestProfiles:
    def test_precision_profile_totals(self):
        snap = snap_of("allroots")
        totals = snap["precision"]["totals"]
        assert totals["procedures"] == len(snap["solution"])
        assert totals["total_ptfs"] == sum(
            rec["ptfs"] for rec in snap["precision"]["procedures"].values()
        )
        assert totals["avg_ptfs"] is not None and totals["avg_ptfs"] >= 1.0
        assert totals["degraded_records"] == 0

    def test_memory_profile_gauges(self):
        snap = snap_of("allroots")
        mem = snap["volatile"]["memory"]
        assert mem["blocks_created"] > 0
        assert mem["locsets_interned"] > 0
        assert mem["state"]["entries"] > 0
        assert mem["ptf_store"]["ptfs"] > 0
        # tracemalloc is opt-in; without track_memory the peak is None
        assert mem["tracemalloc_peak_kb"] is None

    def test_tracemalloc_peak_when_tracking(self):
        snap = snap_of("allroots", track_memory=True)
        assert snap["volatile"]["memory"]["tracemalloc_peak_kb"] > 0

    def test_track_memory_does_not_move_the_digest(self):
        plain = snap_of("allroots")
        tracked = snap_of("allroots", track_memory=True)
        assert plain["digest"]["program"] == tracked["digest"]["program"]

    def test_perf_profile_shape(self):
        snap = snap_of("allroots")
        perf = snap["volatile"]["perf"]
        assert perf["elapsed_seconds"] > 0
        assert "analysis" in perf["phases"]
        assert "main" in perf["procedures"]
        assert perf["counters"]["lookups"] > 0


class TestIO:
    def test_roundtrip_through_file(self, tmp_path):
        snap = snap_of("allroots")
        dest = tmp_path / "snap.json"
        write_snapshot(snap, str(dest))
        loaded = load_snapshot(str(dest))
        assert loaded == json.loads(json.dumps(snap))
        assert canonical_bytes(loaded) == canonical_bytes(snap)

    def test_roundtrip_through_file_object(self):
        snap = snap_of("allroots")
        buf = io.StringIO()
        write_snapshot(snap, buf)
        buf.seek(0)
        assert load_snapshot(buf)["format"] == SNAPSHOT_FORMAT

    def test_bad_format_rejected(self, tmp_path):
        dest = tmp_path / "bad.json"
        dest.write_text(json.dumps({"format": "something-else/9"}))
        with pytest.raises(ValueError, match="unsupported snapshot format"):
            load_snapshot(str(dest))

    def test_dump_is_stable(self):
        snap = snap_of("allroots")
        assert dump_snapshot(snap) == dump_snapshot(json.loads(json.dumps(snap)))
