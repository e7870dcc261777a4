"""The demand fallback tier end to end: engine routing, server
envelopes, hot-reload counter carry-over, and the CLI surface
(``--demand``/``--no-demand``/``--analyze-on-miss``).

Every store here records its sources (path + sha256), because that is
what the tier probes; the scenarios then edit those sources on disk and
check who answers — the store (fresh), the tier's fresh in-memory
index (``mode: demand``), or the store annotated (``stale: true``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import AnalyzerOptions
from repro.analysis.demand import DemandTier, fresh_analysis_state
from repro.analysis.results import run_analysis
from repro.cli import main
from repro.frontend.parser import load_project_files
from repro.query.engine import QueryEngine
from repro.query.server import QueryServer
from repro.query.store import build_store, load_store, seal_store, write_store

SOURCE = """
int g, h;
int *pick(int *p) { return p; }
int main(void) {
    int *a = pick(&g);
    return 0;
}
"""

#: same program, one edit inside ``main``: a now points at h
EDITED = SOURCE.replace("pick(&g)", "pick(&h)")

#: ``use`` stores a new pointer in a global that ``peek`` (also called by
#: main, never by use) reads: peek's facts move though peek did not
CONTEXT = """
int x, y;
int *gp = &x;
void use(void) { gp = &x; }
int peek(void) { int *r = gp; return *r; }
int main(void) { use(); return peek(); }
"""
CONTEXT_EDITED = CONTEXT.replace("void use(void) { gp = &x; }",
                                 "void use(void) { gp = &y; }")

#: touches only the leaf, leaving main stale via the dependents set
LEAF_EDIT = SOURCE.replace(
    "int *pick(int *p) { return p; }",
    "int *pick(int *p) { int unused = 0; (void)unused; return p; }",
)


def index_sources(tmp_path, text=SOURCE):
    """Write ``text``, index it the way ``repro index`` does, and load
    the sealed store back — digests, sources and all."""
    src = tmp_path / "prog.c"
    src.write_text(text)
    fresh_analysis_state()
    program = load_project_files([str(src)], name="prog")
    result = run_analysis(program, AnalyzerOptions())
    store = build_store(result, program_name="prog", sources=[str(src)])
    store_path = tmp_path / "prog.store.json"
    write_store(store, str(store_path))
    return src, store_path, load_store(str(store_path))


def fresh_answer(tmp_path, text, request):
    """The answer a fresh ``repro index`` of ``text`` gives (indexed at
    the same path: answers name their sources)."""
    _, _, store = index_sources(tmp_path, text)
    return QueryEngine(store).query(dict(request))


def demand_engine_for(store):
    return QueryEngine(store, demand=DemandTier(store, enabled=True))


POINTS_TO_A = {"op": "points_to", "var": "a", "proc": "main"}


# -- engine routing ---------------------------------------------------------


class TestRouting:
    def test_fresh_store_gets_no_annotations(self, tmp_path):
        _, _, store = index_sources(tmp_path)
        engine = demand_engine_for(store)
        info = {}
        ans = engine.query(dict(POINTS_TO_A), info=info)
        assert ans["targets"] == ["g"]
        assert "mode" not in info and "stale" not in info

    def test_edit_routes_to_demand_with_fresh_facts(self, tmp_path):
        src, _, store = index_sources(tmp_path)
        engine = demand_engine_for(store)
        engine.query(dict(POINTS_TO_A))  # warm the store path first
        src.write_text(EDITED)
        info = {}
        ans = engine.query(dict(POINTS_TO_A), info=info)
        assert info.get("mode") == "demand"
        assert ans["targets"] == ["h"]

    def test_demand_answer_matches_reindexed_store(self, tmp_path):
        src, _, store = index_sources(tmp_path)
        engine = demand_engine_for(store)
        src.write_text(EDITED)
        demand_answer = engine.query(dict(POINTS_TO_A), info={})
        # now rebuild the store from the edited sources and compare bytes
        _, _, fresh_store = index_sources(tmp_path, EDITED)
        fresh_answer = QueryEngine(fresh_store).query(dict(POINTS_TO_A))
        assert json.dumps(demand_answer, sort_keys=True) == json.dumps(
            fresh_answer, sort_keys=True
        )

    def test_leaf_edit_marks_caller_stale_too(self, tmp_path):
        src, _, store = index_sources(tmp_path)
        engine = demand_engine_for(store)
        src.write_text(LEAF_EDIT)
        info = {}
        engine.query(dict(POINTS_TO_A), info=info)
        assert info.get("mode") == "demand"  # main is a dependent of pick

    def test_callee_of_edited_caller_is_recomputed(self, tmp_path):
        """main now passes &h: pick did not change, but its parameter's
        context did, so p@pick must not keep answering g."""
        src, _, store = index_sources(tmp_path)
        engine = demand_engine_for(store)
        request = {"op": "points_to", "var": "p", "proc": "pick"}
        assert engine.query(dict(request))["targets"] == ["g"]
        src.write_text(EDITED)
        info = {}
        ans = engine.query(dict(request), info=info)
        assert info.get("mode") == "demand"
        assert ans["targets"] == ["h"]
        assert ans == fresh_answer(tmp_path, EDITED, request)

    def test_sibling_callee_reading_a_global_is_recomputed(self, tmp_path):
        """use now stores &y in gp; peek, which only main calls, reads
        gp and must answer y."""
        src, _, store = index_sources(tmp_path, CONTEXT)
        engine = demand_engine_for(store)
        request = {"op": "points_to", "var": "r", "proc": "peek"}
        assert engine.query(dict(request))["targets"] == ["x"]
        src.write_text(CONTEXT_EDITED)
        info = {}
        ans = engine.query(dict(request), info=info)
        assert info.get("mode") == "demand"
        assert ans["targets"] == ["y"]
        assert ans == fresh_answer(tmp_path, CONTEXT_EDITED, request)

    def test_disabled_tier_serves_store_annotated_stale(self, tmp_path):
        src, _, store = index_sources(tmp_path)
        engine = QueryEngine(store, demand=DemandTier(store, enabled=False))
        src.write_text(EDITED)
        info = {}
        ans = engine.query(dict(POINTS_TO_A), info=info)
        assert info.get("stale") is True
        assert "mode" not in info
        assert ans["targets"] == ["g"]  # the outdated stored fact

    def test_revert_returns_to_fresh(self, tmp_path):
        src, _, store = index_sources(tmp_path)
        engine = demand_engine_for(store)
        src.write_text(EDITED)
        engine.query(dict(POINTS_TO_A), info={})
        src.write_text(SOURCE)  # byte-identical to the indexed content
        info = {}
        ans = engine.query(dict(POINTS_TO_A), info=info)
        assert "mode" not in info and "stale" not in info
        assert ans["targets"] == ["g"]

    def test_parse_error_degrades_to_stale_serving(self, tmp_path):
        src, _, store = index_sources(tmp_path)
        engine = demand_engine_for(store)
        src.write_text("int main(void) { this does not parse")
        info = {}
        ans = engine.query(dict(POINTS_TO_A), info=info)
        assert info.get("stale") is True  # no engine, but serving survives
        assert ans["targets"] == ["g"]
        tier = engine.demand
        assert "error" in tier.stats()

    def test_error_state_recovers_when_main_returns(self, tmp_path):
        src, _, store = index_sources(tmp_path)
        engine = demand_engine_for(store)
        src.write_text(EDITED.replace("int main(void)", "int start(void)"))
        info = {}
        engine.query(dict(POINTS_TO_A), info=info)
        assert info.get("stale") is True
        src.write_text(EDITED)
        info = {}
        ans = engine.query(dict(POINTS_TO_A), info=info)
        assert info.get("mode") == "demand" and ans["targets"] == ["h"]
        assert "error" not in engine.demand.stats()

    def test_stats_expose_tier_block(self, tmp_path):
        src, _, store = index_sources(tmp_path)
        engine = demand_engine_for(store)
        src.write_text(EDITED)
        engine.query(dict(POINTS_TO_A), info={})
        stats = engine.query({"op": "stats"})
        demand = stats["demand"]
        assert demand["verdict"] == "stale"
        assert demand["fallbacks"] == 1
        assert demand["analyses"] == 1


# -- the daemon -------------------------------------------------------------


class TestServer:
    def build(self, tmp_path, enabled=True):
        src, store_path, store = index_sources(tmp_path)
        tier = DemandTier(store, enabled=enabled)
        engine = QueryEngine(store, demand=tier)
        server = QueryServer(engine, store_path=str(store_path))
        return src, store_path, server

    def test_envelope_carries_demand_mode(self, tmp_path):
        src, _, server = self.build(tmp_path)
        fresh = server.handle_request(dict(POINTS_TO_A))
        assert fresh["ok"] and "mode" not in fresh and "stale" not in fresh
        src.write_text(EDITED)
        envelope = server.handle_request(dict(POINTS_TO_A))
        assert envelope["ok"] and envelope["status"] == 0
        assert envelope["mode"] == "demand"
        assert envelope["result"]["targets"] == ["h"]

    def test_envelope_carries_stale_when_disabled(self, tmp_path):
        src, _, server = self.build(tmp_path, enabled=False)
        src.write_text(EDITED)
        envelope = server.handle_request(dict(POINTS_TO_A))
        assert envelope["stale"] is True
        assert envelope["result"]["targets"] == ["g"]

    def test_fallback_counter_in_stats_and_metrics(self, tmp_path):
        src, _, server = self.build(tmp_path)
        src.write_text(EDITED)
        server.handle_request(dict(POINTS_TO_A))
        server.handle_request(dict(POINTS_TO_A))
        stats = server.handle_request({"op": "stats"})["result"]
        assert stats["server"]["demand_fallbacks"] == 2
        assert stats["demand"]["fallbacks"] == 2
        metrics = server.handle_request(
            {"op": "stats", "format": "prometheus"}
        )["result"]["text"]
        assert "repro_server_demand_fallbacks 2" in metrics

    def test_reload_drops_cached_callee_answer(self, tmp_path):
        """A cached p@pick answer states g; after main's edit is
        re-indexed and swapped in, it must be dropped, not carried."""
        src, store_path, server = self.build(tmp_path)
        request = {"op": "points_to", "var": "p", "proc": "pick"}
        assert server.handle_request(dict(request))["result"]["targets"] == ["g"]
        _, _, fresh_store = index_sources(tmp_path, EDITED)
        write_store(fresh_store, str(store_path))
        reload_env = server.handle_request({"op": "reload"})
        assert reload_env["result"]["cache"] == {"carried": 0, "dropped": 1}
        after = server.handle_request(dict(request))
        assert "mode" not in after and after["result"]["targets"] == ["h"]

    def test_reload_rebinds_tier_and_keeps_counters(self, tmp_path):
        src, store_path, server = self.build(tmp_path)
        src.write_text(EDITED)
        demand_envelope = server.handle_request(dict(POINTS_TO_A))
        assert demand_envelope["mode"] == "demand"
        old_tier = server.engine.demand
        # full re-index of the edited sources, then hot swap
        _, _, fresh_store = index_sources(tmp_path, EDITED)
        write_store(fresh_store, str(store_path))
        reload_env = server.handle_request({"op": "reload"})
        assert reload_env["ok"]
        new_tier = server.engine.demand
        assert new_tier is not old_tier
        assert new_tier.fallbacks == 1  # carried across the swap
        after = server.handle_request(dict(POINTS_TO_A))
        assert "mode" not in after  # new store is fresh for the new bytes
        assert json.dumps(after["result"], sort_keys=True) == json.dumps(
            demand_envelope["result"], sort_keys=True
        )


# -- the CLI ----------------------------------------------------------------


class TestCLI:
    def prog(self, tmp_path, text=SOURCE):
        src = tmp_path / "prog.c"
        src.write_text(text)
        store = tmp_path / "prog.store.json"
        assert main(["index", str(src), "-o", str(store)]) == 0
        return src, store

    def test_missing_store_prints_hint(self, tmp_path, capsys):
        rc = main(
            ["query", str(tmp_path / "absent.json"), "points-to a@main"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "repro: hint:" in err
        assert "--analyze-on-miss" in err

    def test_analyze_on_miss_answers_without_store(self, tmp_path, capsys):
        src = tmp_path / "prog.c"
        src.write_text(SOURCE)
        rc = main(
            [
                "query", str(tmp_path / "absent.json"), "points-to a@main",
                "--analyze-on-miss", str(src), "--json",
            ]
        )
        assert rc == 0
        answers = json.loads(capsys.readouterr().out)
        assert answers[0]["targets"] == ["g"]
        assert answers[0]["mode"] == "demand"

    def test_stale_query_recomputed_by_default(self, tmp_path, capsys):
        src, store = self.prog(tmp_path)
        capsys.readouterr()
        src.write_text(EDITED)
        rc = main(["query", str(store), "points-to a@main", "--json"])
        assert rc == 0
        captured = capsys.readouterr()
        answers = json.loads(captured.out)
        assert answers[0]["targets"] == ["h"]
        assert answers[0]["mode"] == "demand"
        assert "recomputed" in captured.err

    def test_no_demand_marks_stale_json(self, tmp_path, capsys):
        src, store = self.prog(tmp_path)
        capsys.readouterr()
        src.write_text(EDITED)
        rc = main(
            ["query", str(store), "points-to a@main", "--json", "--no-demand"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        answers = json.loads(captured.out)
        assert answers[0]["targets"] == ["g"]
        assert answers[0]["stale"] is True
        assert "--no-demand" in captured.err  # the warning names the way out

    def test_sources_without_main_serve_the_store_stale(self, tmp_path, capsys):
        src, store = self.prog(tmp_path)
        capsys.readouterr()
        src.write_text(SOURCE.replace("int main(void)", "int start(void)"))
        rc = main(["query", str(store), "points-to a@main", "--json"])
        assert rc == 0
        captured = capsys.readouterr()
        answers = json.loads(captured.out)
        assert answers[0]["targets"] == ["g"]
        assert answers[0]["stale"] is True and "mode" not in answers[0]
        assert "no analyzable main procedure" in captured.err

    def test_analyze_on_miss_without_main_exits_2(self, tmp_path, capsys):
        src = tmp_path / "lib.c"
        src.write_text("int *pick(int *p) { return p; }\n")
        rc = main(
            [
                "query", str(tmp_path / "absent.json"), "points-to p@pick",
                "--analyze-on-miss", str(src),
            ]
        )
        assert rc == 2
        assert "no analyzable main procedure" in capsys.readouterr().err


class TestOtherWorkingDirectory:
    """A store indexed with a relative source path probes the file by
    its recorded absolute path, so it answers fresh from any working
    directory and still sees edits there; answers keep the path as
    typed."""

    def index_relative(self, tmp_path, monkeypatch):
        home, elsewhere = tmp_path / "home", tmp_path / "elsewhere"
        home.mkdir()
        elsewhere.mkdir()
        (home / "prog.c").write_text(SOURCE)
        monkeypatch.chdir(home)
        assert main(["index", "prog.c", "-o", "prog.store.json"]) == 0
        monkeypatch.chdir(elsewhere)
        return home / "prog.c", home / "prog.store.json"

    def query(self, store, capsys):
        capsys.readouterr()
        rc = main(["query", str(store), "points-to a@main", "callees main", "--json"])
        captured = capsys.readouterr()
        return rc, json.loads(captured.out), captured.err

    def hinted_file(self, answer):
        # the explain hint must name a file that exists from here
        cmd = answer["explain"].split()
        assert cmd[:2] == ["repro", "explain"]
        assert cmd[3:] == ["--query", "a@main"]
        return Path(cmd[2])

    def serve(self, store, cwd):
        requests = [
            {"op": "points_to", "var": "a", "proc": "main", "id": 1},
            {"op": "shutdown", "id": 2},
        ]
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", str(store)],
            input="".join(json.dumps(r) + "\n" for r in requests),
            capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[0])

    def test_query_from_another_directory(self, tmp_path, monkeypatch, capsys):
        src, store = self.index_relative(tmp_path, monkeypatch)
        assert load_store(str(store))["sources"][0]["path"] == "prog.c"
        rc, answers, err = self.query(store, capsys)
        assert rc == 0 and err == ""
        assert all("stale" not in a and "mode" not in a for a in answers)
        assert answers[0]["targets"] == ["g"]
        assert self.hinted_file(answers[0]).exists()
        src.write_text(EDITED)
        rc, answers, err = self.query(store, capsys)
        assert rc == 0 and "warning" not in err
        assert answers[0]["mode"] == "demand"
        assert answers[0]["targets"] == ["h"]
        assert self.hinted_file(answers[0]).exists()

    def test_serve_from_another_directory(self, tmp_path, monkeypatch):
        src, store = self.index_relative(tmp_path, monkeypatch)
        elsewhere = tmp_path / "elsewhere"
        envelope = self.serve(store, elsewhere)
        assert "stale" not in envelope and "mode" not in envelope
        assert envelope["result"]["targets"] == ["g"]
        assert self.hinted_file(envelope["result"]).exists()
        src.write_text(EDITED)
        envelope = self.serve(store, elsewhere)
        assert envelope["mode"] == "demand"
        assert envelope["result"]["targets"] == ["h"]

    def test_store_without_absolute_paths_probes_as_before(
        self, tmp_path, monkeypatch, capsys
    ):
        """A store written before ``abspath`` was recorded resolves its
        relative paths against the working directory, as it always did."""
        _, store = self.index_relative(tmp_path, monkeypatch)
        doc = load_store(str(store))
        for rec in doc["sources"]:
            del rec["abspath"]
        write_store(seal_store(doc), str(store))
        rc, answers, err = self.query(store, capsys)
        assert rc == 0 and all(a.get("stale") for a in answers)
        assert "cannot stat sources" in err
        monkeypatch.chdir(tmp_path / "home")
        rc, answers, err = self.query(store, capsys)
        assert rc == 0 and err == ""
        assert all("stale" not in a for a in answers)
