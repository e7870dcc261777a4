"""Snapshot determinism and canonicalization tests.

The acceptance property of the regression observatory: a snapshot is a
pure function of (program, options), and its canonical bytes of
(program, semantics-affecting options).  Back-to-back runs must produce
byte-identical documents; the memos must not move the digest (the uncached sparse state of
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
        assert dump_snapshot(a) == dump_snapshot(b)

    @pytest.mark.parametrize("name", ["allroots", "grep", "compress"])
    def test_lookup_cache_does_not_move_the_digest(self, name):
        # pure memoization: the memos change counters but provably not
        # the snapshot
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
    def test_options_are_excluded_from_canonical_bytes(self):
        snap = snap_of("allroots")
        mutated = json.loads(json.dumps(snap))
        mutated["options"]["max_passes"] = 1
        assert canonical_bytes(mutated) == canonical_bytes(snap)

    def test_snapshot_records_only_what_was_computed(self):
        # no timers, counters or memory gauges: those describe the host
        snap = snap_of("allroots")
        assert set(snap) == {
            "format", "program", "options", "digest", "precision",
            "call_graph", "degradation", "solution",
        }

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
        # the live gauges stay in --stats-json, not in the snapshot
        reset_interning()
        result = analyze_benchmark("allroots")
        mem = result.analyzer.stats_dict()["memory"]
        assert mem == result.analyzer.memory_profile()
        assert mem["blocks_created"] > 0
        assert mem["locsets_interned"] > 0
        assert mem["state"]["entries"] > 0
        assert mem["ptf_store"]["ptfs"] > 0


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

    def test_older_volatile_section_is_dropped_on_load(self, tmp_path):
        # snapshots written by older versions carry a volatile section of
        # timers and memory gauges; it loads and is ignored
        snap = snap_of("allroots")
        older = dict(snap, volatile={"perf": {"elapsed_seconds": 1.0}})
        dest = tmp_path / "older.json"
        write_snapshot(older, str(dest))
        loaded = load_snapshot(str(dest))
        assert "volatile" not in loaded
        assert dump_snapshot(loaded) == dump_snapshot(snap)

    def test_bad_format_rejected(self, tmp_path):
        dest = tmp_path / "bad.json"
        dest.write_text(json.dumps({"format": "something-else/9"}))
        with pytest.raises(ValueError, match="unsupported snapshot format"):
            load_snapshot(str(dest))

    def test_dump_is_stable(self):
        snap = snap_of("allroots")
        assert dump_snapshot(snap) == dump_snapshot(json.loads(json.dumps(snap)))
