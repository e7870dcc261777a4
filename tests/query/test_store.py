"""The persistent analysis store: build, serialize, reload, prove.

The store's one correctness obligation is *fidelity*: everything the
demand engine will answer from it must be exactly what the live
:class:`~repro.analysis.results.AnalysisResult` would have answered.
These tests pin that at the store layer (the engine layer has its own,
and the hypothesis property test sweeps the full benchmark suite).
"""

import json
import os

import pytest

from repro import AnalyzerOptions, analyze_source
from repro.query import (
    STORE_FORMAT,
    StoreError,
    build_store,
    load_store,
    seal_store,
    verify_store_integrity,
    write_store,
)
from repro.query.store import _loc_key

SOURCE = """
int g;
int *gp;
void set(int **pp, int *v) { *pp = v; }
int use(int *p) { return *p; }
int main(void) {
    int x;
    int *p = &x;
    set(&gp, &g);
    return use(p);
}
"""


@pytest.fixture(scope="module")
def result():
    return analyze_source(SOURCE, options=AnalyzerOptions())


@pytest.fixture(scope="module")
def store(result):
    return build_store(result, program_name="unit")


def test_store_document_shape(store):
    assert store["format"] == STORE_FORMAT
    assert store["program"] == "unit"
    assert set(store) == {
        "format", "program", "sources", "options", "snapshot", "ir",
        "call_graph", "index", "integrity",
    }
    # one copy of each fact: the snapshot section keeps only what the
    # top level does not already carry
    assert set(store["snapshot"]) == {"digest", "degradation"}
    index = store["index"]
    assert set(index) == {"procedures", "pointed_by", "callsites"}
    assert set(index["procedures"]) == {"main", "set", "use"}


def test_store_is_json_serializable(store):
    # the whole document round-trips through JSON without custom encoders
    again = json.loads(json.dumps(store))
    assert again["index"] == store["index"]


def test_vars_table_matches_live_points_to(store, result):
    for proc, rec in store["index"]["procedures"].items():
        for var, entry in rec["vars"].items():
            live = sorted(result.points_to_names(proc, var))
            assert entry["targets"] == live, (proc, var)


def test_queryable_lists_locals_and_globals(store, result):
    rec = store["index"]["procedures"]["main"]
    assert "p" in rec["queryable"]
    assert "g" in rec["queryable"]  # globals are queryable everywhere
    assert rec["queryable"] == sorted(rec["queryable"])


def test_alias_table_is_per_ptf(store):
    """Alias rows carry the PTF uid — merging across PTFs would
    manufacture spurious may-aliases, so the format must keep them
    apart."""
    for rec in store["index"]["procedures"].values():
        for rows in rec["alias"].values():
            for row in rows:
                assert set(row) == {"ptf", "locs"}
                assert isinstance(row["ptf"], int)


def test_pointed_by_inverts_vars(store):
    index = store["index"]
    for proc, rec in index["procedures"].items():
        for var, entry in rec["vars"].items():
            for target in entry["targets"]:
                assert [proc, var] in index["pointed_by"][target]
    # and nothing extra: every reverse edge has a forward edge
    for target, pairs in index["pointed_by"].items():
        for proc, var in pairs:
            assert target in index["procedures"][proc]["vars"][var]["targets"]


def test_snapshot_section_matches_fresh_snapshot(store, result):
    """The store pins the run it was built from: its digests and
    degradation account equal a fresh ``repro snapshot``'s, and its
    call graph, program name and options are the snapshot's."""
    from repro.diagnostics.snapshot import build_snapshot

    fresh = build_snapshot(result, program_name="unit")
    assert store["snapshot"] == {
        "digest": fresh["digest"],
        "degradation": fresh["degradation"],
    }
    assert store["call_graph"] == fresh["call_graph"]
    assert store["program"] == fresh["program"]
    assert store["options"] == fresh["options"]


def test_write_emits_canonical_bytes(tmp_path, store):
    """The file is sorted-key compact JSON: the same bytes the integrity
    digest hashes, plus the record itself."""
    path = tmp_path / "x.store.json"
    write_store(store, str(path))
    assert path.read_text() == (
        json.dumps(store, sort_keys=True, separators=(",", ":")) + "\n"
    )


def test_write_is_atomic(tmp_path, store):
    target = tmp_path / "x.store.json"
    write_store(dict(store, hello=1), str(target))
    assert not os.path.exists(str(target) + ".tmp")
    # the extra key fails the whole-store digest (the sealed doc didn't
    # carry it) but not the shape checks: verify=False loads it
    assert load_store(str(target), verify=False)["hello"] == 1


def test_write_to_stream(tmp_path, store):
    import io

    buf = io.StringIO()
    write_store(store, buf)
    again = json.loads(buf.getvalue())
    assert again["format"] == STORE_FORMAT


def test_load_rejects_wrong_format(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "repro-store/999"}))
    with pytest.raises(ValueError, match="unsupported store format"):
        load_store(str(bad))


def test_source_records_hash_content(tmp_path):
    from repro.query import source_records

    f = tmp_path / "a.c"
    f.write_text("int main(void) { return 0; }\n")
    [rec] = source_records([str(f)])
    assert rec["path"] == str(f)
    assert len(rec["sha256"]) == 64
    f.write_text("int main(void) { return 1; }\n")
    [rec2] = source_records([str(f)])
    assert rec2["sha256"] != rec["sha256"]


def test_loc_keys_collapse_to_caller_visible_identity(result):
    """Two blocks share a key iff they display as the same caller-visible
    memory — the on-disk replacement for object identity.  In particular
    a global-backed extended parameter keys as its global (``2_g`` and
    ``g`` are the same memory seen from two name spaces)."""
    seen = {}
    for proc in result.program.procedures:
        for var in result.queryable_vars(proc):
            for loc in result.points_to(proc, var):
                key = _loc_key(loc.base)
                display = result.display_name(loc.base)
                if key in seen:
                    assert seen[key] == display, key
                else:
                    seen[key] = display


def test_pure_flag_tracks_empty_mod(store):
    for name, rec in store["index"]["procedures"].items():
        assert rec["pure"] == (not rec["modref"]["mod"]), name


# -- integrity + defensive loading (docs/ROBUSTNESS.md §8) -------------------


class TestIntegrity:
    def test_build_store_seals(self, store):
        record = store["integrity"]
        assert record["algorithm"] == "sha256"
        assert len(record["digest"]) == 64

    def test_sealed_store_round_trips(self, tmp_path, store):
        path = tmp_path / "x.store.json"
        write_store(store, str(path))
        again = load_store(str(path))  # verify=True is the default
        assert again["integrity"] == store["integrity"]

    def test_tampered_store_is_refused(self, tmp_path, store):
        doc = json.loads(json.dumps(store))
        # flip one indexed fact without resealing: a bit-rotted or
        # hand-edited store must not be served
        doc["index"]["procedures"]["main"]["pure"] = True
        path = tmp_path / "x.store.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StoreError, match="integrity check failed"):
            load_store(str(path))

    def test_verify_false_loads_tampered(self, tmp_path, store):
        doc = json.loads(json.dumps(store))
        doc["program"] = "renamed"
        path = tmp_path / "x.store.json"
        path.write_text(json.dumps(doc))
        assert load_store(str(path), verify=False)["program"] == "renamed"

    def test_reseal_restores_trust(self, store):
        doc = json.loads(json.dumps(store))
        doc["program"] = "renamed"
        seal_store(doc)
        verify_store_integrity(doc)  # raises on any mismatch

    def test_store_without_record_is_refused(self, tmp_path, store):
        # build_store seals every store: deleting the record must not
        # turn the tamper check off
        doc = json.loads(json.dumps(store))
        doc.pop("integrity")
        path = tmp_path / "x.store.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StoreError, match="no integrity record"):
            load_store(str(path))
        assert "integrity" not in load_store(str(path), verify=False)

    def test_malformed_integrity_record_is_refused(self, tmp_path, store):
        doc = json.loads(json.dumps(store))
        doc["integrity"] = {"algorithm": "md5", "digest": "short"}
        path = tmp_path / "x.store.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StoreError, match="malformed integrity record"):
            load_store(str(path))

    def test_digest_ignores_key_order(self, store):
        from repro.query import store_integrity_digest

        reordered = dict(reversed(list(store.items())))
        assert store_integrity_digest(reordered) == store_integrity_digest(
            store
        )


class TestDefensiveLoading:
    """Every bad-input failure is a :class:`StoreError` naming the
    store — the CLI renders it as one ``repro:`` line with exit 2,
    never a raw decoder traceback."""

    def test_truncated_json_is_a_store_error(self, tmp_path, store):
        path = tmp_path / "x.store.json"
        payload = json.dumps(store)
        path.write_text(payload[: len(payload) // 2])
        with pytest.raises(StoreError, match="not valid JSON"):
            load_store(str(path))

    def test_empty_file_is_a_store_error(self, tmp_path):
        path = tmp_path / "x.store.json"
        path.write_text("")
        with pytest.raises(StoreError, match="not valid JSON"):
            load_store(str(path))

    def test_non_object_document_is_a_store_error(self, tmp_path):
        path = tmp_path / "x.store.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(StoreError, match="not a JSON object"):
            load_store(str(path))

    def test_unknown_format_is_a_store_error(self, tmp_path):
        path = tmp_path / "x.store.json"
        path.write_text(json.dumps({"format": "repro-store/999"}))
        with pytest.raises(StoreError, match="unsupported store format"):
            load_store(str(path))

    def test_missing_section_is_a_store_error(self, tmp_path, store):
        doc = json.loads(json.dumps(store))
        doc.pop("call_graph")
        path = tmp_path / "x.store.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StoreError, match="call_graph"):
            load_store(str(path))

    def test_store_error_is_a_value_error(self):
        # existing `except ValueError` call sites keep catching it
        assert issubclass(StoreError, ValueError)

    def test_stream_loading_names_the_stream(self, tmp_path):
        import io

        with pytest.raises(StoreError, match="<stream>"):
            load_store(io.StringIO("{truncated"))
