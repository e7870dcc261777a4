"""Tests for the span/event tracer and its Chrome trace export.

Three layers:

* the ``Tracer`` container itself (event ids, span nesting, exporters);
* the Chrome trace-event *schema* an end-to-end analysis emits — phase
  types, required fields, monotonic timestamps (the golden-schema test
  Perfetto compatibility rests on);
* the zero-cost contract: ``trace=None`` must leave points-to results
  and metrics bit-identical to a run that never knew about tracing.
"""

import io
import json

from repro.analysis.engine import AnalyzerOptions, analyze
from repro.diagnostics import EVENT_VOCABULARY, Tracer
from repro.frontend.parser import load_program
from repro.memory.pointsto import reset_interning

SOURCE = """
int g;
void set(int **pp, int *v) { *pp = v; }
int *pick(int *a, int *b) { return g ? a : b; }
int main(void) {
    int x, y;
    int *p;
    set(&p, &x);
    set(&p, &y);
    p = pick(&x, &y);
    *p = 1;
    return 0;
}
"""

VALID_PHASES = {"B", "E", "X", "i"}


def _traced_run():
    tracer = Tracer()
    program = load_program(SOURCE, "m.c", "m")
    analyzer = analyze(program, AnalyzerOptions(trace=tracer))
    return tracer, analyzer


class TestTracerUnit:
    def test_event_ids_are_monotone_and_unique(self):
        t = Tracer()
        ids = [t.begin("a"), t.instant("b"), t.complete("c", "", 0.0, 1.0),
               t.end("a")]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert t.last_eid == ids[-1]
        assert len(t) == 4

    def test_span_context_manager_pairs(self):
        t = Tracer()
        with t.span("work", "cat", key="v"):
            t.instant("inner")
        phases = [e["ph"] for e in t.events]
        assert phases == ["B", "i", "E"]
        assert t.events[0]["args"]["key"] == "v"

    def test_instant_has_thread_scope(self):
        t = Tracer()
        t.instant("mark")
        assert t.events[0]["s"] == "t"

    def test_complete_clamps_negative_duration(self):
        t = Tracer()
        t.complete("x", "", 5.0, -1.0)
        assert t.events[0]["dur"] == 0.0

    def test_jsonl_round_trip(self):
        t = Tracer()
        t.begin("a", "cat")
        t.end("a", "cat")
        buf = io.StringIO()
        t.write_jsonl(buf)
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert [l["ph"] for l in lines] == ["B", "E"]

    def test_chrome_dict_metadata(self):
        t = Tracer()
        t.instant("m")
        d = t.chrome_dict(program="demo")
        assert d["otherData"] == {"program": "demo"}


class TestChromeSchema:
    """Golden-schema test: the JSON an analysis emits must satisfy the
    Chrome trace-event contract Perfetto / chrome://tracing load."""

    def test_end_to_end_schema(self):
        tracer, _ = _traced_run()
        doc = tracer.chrome_dict(program="m")
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert events, "an analysis must emit events"
        last_ts = -1.0
        for e in events:
            # required fields, per phase type
            assert e["ph"] in VALID_PHASES
            assert isinstance(e["name"], str) and e["name"]
            assert isinstance(e["pid"], int)
            assert isinstance(e["tid"], int)
            assert isinstance(e["ts"], float)
            assert e["ts"] >= 0.0
            assert e["ts"] >= last_ts  # sorted: monotone timestamps
            last_ts = e["ts"]
            assert "eid" in e["args"]
            if e["ph"] == "X":
                assert e["dur"] >= 0.0
            if e["ph"] == "i":
                assert e["s"] == "t"
        # the whole document is valid JSON as serialized
        json.loads(json.dumps(doc))

    def test_spans_balance(self):
        tracer, _ = _traced_run()
        depth = 0
        for e in tracer.events:  # emission order
            if e["ph"] == "B":
                depth += 1
            elif e["ph"] == "E":
                depth -= 1
                assert depth >= 0, "E without matching B"
        assert depth == 0, "unclosed span"

    def test_driver_and_interproc_events_present(self):
        tracer, _ = _traced_run()
        names = {e["name"] for e in tracer.events}
        assert {"analyze", "finalize", "analysis", "summary"} <= names
        assert "pass" in names
        assert "ptf.create" in names
        assert "apply_summary" in names
        assert "initial_fetch" in names
        assert any(n.startswith("eval ") for n in names)

    def test_ptf_reuse_event_carries_alias_pattern(self):
        tracer, _ = _traced_run()
        reuses = [e for e in tracer.events if e["name"] == "ptf.reuse"]
        assert reuses, "set() is called twice with the same alias pattern"
        assert all("pattern" in e["args"] for e in reuses)
        assert any(e["args"]["pattern"] != "<empty>" for e in reuses)

    def test_emitted_names_are_in_the_vocabulary(self):
        tracer, _ = _traced_run()
        for e in tracer.events:
            name = e["name"]
            if name.startswith("eval "):
                name = "eval"
            assert name in EVENT_VOCABULARY, f"undocumented event {name!r}"

    def test_every_emission_site_in_the_tree_is_registered(self):
        """Vocabulary closure over the whole source tree, not just the
        sequential path a traced run happens to exercise, both ways:
        every literal event name passed to
        ``.instant/.begin/.end/.complete/.span`` anywhere under
        ``src/repro`` must be in ``EVENT_VOCABULARY`` — a new emission
        site cannot ship an undocumented event — and every registered
        name must have such a site, so the vocabulary cannot keep
        documenting an event nothing emits."""
        import os
        import re

        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        # the literal dot keeps attribute calls only (never `append(`);
        # f-string names truncate at `{` — "eval {proc}" -> "eval"
        call = re.compile(
            r"\.(?:instant|begin|end|complete|span)\(\s*f?[\"']"
            r"([^\"'{]*)"
        )
        sites: dict[str, list[str]] = {}
        for dirpath, _dirnames, filenames in os.walk(root):
            for fn in sorted(filenames):
                if not fn.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fn)
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
                for m in call.finditer(text):
                    name = m.group(1).strip()
                    if not name:
                        continue
                    rel = os.path.relpath(path, root)
                    sites.setdefault(name, []).append(rel)
        assert sites, "no emission sites found — regex rotted?"
        unregistered = {
            name: files
            for name, files in sites.items()
            if name not in EVENT_VOCABULARY
        }
        assert not unregistered, (
            f"events emitted but missing from EVENT_VOCABULARY: "
            f"{unregistered}"
        )
        unemitted = sorted(set(EVENT_VOCABULARY) - set(sites))
        assert not unemitted, (
            f"EVENT_VOCABULARY names with no emission site: {unemitted}"
        )


class TestZeroCostWhenDisabled:
    def _run(self, **opt_kwargs):
        reset_interning()
        program = load_program(SOURCE, "m.c", "m")
        analyzer = analyze(program, AnalyzerOptions(**opt_kwargs))
        summary = {
            str(loc): sorted(str(v) for v in vals)
            for loc, vals in analyzer.main_frame.ptf.summary().items()
        }
        return summary, analyzer.metrics.counters()

    def test_trace_none_is_bit_identical(self):
        base_summary, base_counters = self._run()
        traced_summary, traced_counters = self._run(
            trace=Tracer()
        )
        assert base_summary == traced_summary
        assert base_counters == traced_counters

    def test_provenance_off_by_default_and_harmless_when_on(self):
        base_summary, base_counters = self._run()
        prov_summary, prov_counters = self._run(provenance=True)
        assert base_summary == prov_summary
        assert base_counters == prov_counters
