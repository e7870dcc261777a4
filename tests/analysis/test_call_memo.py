"""The call-site memo (``InterproceduralMixin._call_internal``).

A call dispatch that reused a callee PTF with no revisit is recorded with
what it read; while none of it changes, the dispatch is skipped.  These
tests check each validity input in isolation on a finished analysis
(re-dispatching one call of ``main`` by hand), then run the re-dispatch
oracle (:mod:`tests.analysis.memo_oracle`) over every benchmark program
and over generated programs, and check that ``lookup_cache=False`` turns
the memo off without moving any result.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AnalyzerOptions, analyze_source, load_program
from repro.analysis.intra import ProcEvaluator
from repro.analysis.results import run_analysis
from repro.bench.programs import load_source, program_dir
from repro.diagnostics.snapshot import build_snapshot
from repro.memory.locset import LocationSet
from repro.memory.pointsto import reset_interning

from .memo_oracle import oracle_result
from .test_property import ALL_VARS, programs
from .test_structs import STRUCT_COPY

SRC = """
int a, b, c;
int *g, *h;
void set(int **slot, int *v) { *slot = v; }
int main(void) {
    int *p, *q;
    g = &c;
    set(&p, &a);
    q = &b;
    return 0;
}
"""


def _call_node(result, caller, callee):
    proc = result.program.procedures[caller]
    for node in proc.call_nodes():
        if str(node.target) == f"&{callee}":
            return node
    raise AssertionError(f"no call to {callee} in {caller}")


def redispatch(result, callee="set"):
    """Re-evaluate ``main``'s call to ``callee`` as a fixpoint pass would;
    returns "hit" or "miss"."""
    analyzer = result.analyzer
    frame = analyzer.main_frame
    node = _call_node(result, "main", callee)
    metrics = analyzer.metrics
    hits, misses = metrics.call_memo_hits, metrics.call_memo_misses
    analyzer.stack.append(frame)
    frame.ptf.analyzing = True
    try:
        analyzer._call_internal(frame, ProcEvaluator(analyzer, frame), node, callee, False)
    finally:
        analyzer.stack.pop()
        frame.ptf.analyzing = False
    if metrics.call_memo_misses != misses:
        return "miss"
    assert metrics.call_memo_hits == hits + 1
    return "hit"


def local(result, proc, name):
    procedure = result.program.procedures[proc]
    return LocationSet(procedure.local_block(procedure.locals[name]), 0, 0)


@pytest.fixture
def result():
    """A finished analysis of ``SRC`` whose call to ``set`` is recorded.

    The run itself may end before the call is stored: when the pass that
    revisits ``set`` (its inputs gained a pointer location) changes
    nothing, ``main`` converges.  One more dispatch records it."""
    reset_interning()
    r = analyze_source(SRC)
    redispatch(r)
    return r


class TestValidity:
    def test_unchanged_inputs_hit(self, result):
        assert redispatch(result) == "hit"
        assert redispatch(result) == "hit"

    def test_write_to_a_read_base_misses(self, result):
        # the match reads *slot's initial value through p's block
        state = result.analyzer.main_frame.ptf.state
        node = _call_node(result, "main", "set")
        p = local(result, "main", "p")
        state.assign(p, {local(result, "main", "q")}, node.preds[0], strong=True)
        assert redispatch(result) == "miss"
        # *slot now holds a pointer: that dispatch revisits set and is not
        # recorded; the next one is, and then the call hits again
        assert [redispatch(result) for _ in range(2)] == ["miss", "hit"]

    def test_write_to_an_unrelated_base_still_hits(self, result):
        state = result.analyzer.main_frame.ptf.state
        node = _call_node(result, "main", "set")
        before = state.change_counter
        state.assign(local(result, "main", "q"), {local(result, "main", "p")},
                     node.preds[0], strong=True)
        assert state.change_counter > before
        assert redispatch(result) == "hit"

    def test_new_pointer_location_misses(self, result):
        p = local(result, "main", "p")
        assert p.base.register_pointer_location(8, 0)
        assert redispatch(result) == "miss"

    def test_callee_summary_growth_misses(self, result):
        (callee,) = result.ptfs_of("set")
        slot = local(result, "set", "slot")
        generation = callee.summary_generation
        callee.state.assign(slot, {local(result, "set", "v")},
                            callee.proc.exit, strong=False)
        callee.summary()
        assert callee.summary_generation > generation
        assert redispatch(result) == "miss"

    def test_callee_reset_misses(self, result):
        (callee,) = result.ptfs_of("set")
        callee.reset()
        assert redispatch(result) == "miss"

    def test_caller_reset_drops_its_memo(self, result):
        main = result.analyzer.main_frame.ptf
        assert main.call_memo
        main.reset()
        assert main.call_memo == {}

    def test_subsumption_in_the_caller_misses(self, result):
        main = result.analyzer.main_frame.ptf
        state = main.state
        # main's parameter for g carries a def key (g = &c); subsuming it
        # moves that key to the new representative
        g_param = main.global_params["g"]
        assert any(key.base is g_param for defs in state._defs.values() for key in defs)
        version = state.read_version()
        g_param.subsumed_by = main.new_param("merged")
        assert state.read_version() > version
        assert redispatch(result) == "miss"

    def test_mark_changed_misses(self, result):
        result.analyzer.main_frame.ptf.state.mark_changed()
        assert redispatch(result) == "miss"


class TestNeverStored:
    def test_callee_with_function_pointer_inputs(self, result):
        (callee,) = result.ptfs_of("set")
        # a domain entry that still matches: slot's values name no code
        callee.fnptr_domain[callee.params[0]] = frozenset()
        assert [redispatch(result) for _ in range(2)] == ["miss", "miss"]
        assert not result.analyzer.main_frame.ptf.call_memo

    def test_read_of_an_unbound_input(self, result, monkeypatch):
        # a lookup that reached an input this context leaves unbound
        # answers from the frame's bindings, not from the state
        frame = result.analyzer.main_frame
        ensure_initial = type(frame).ensure_initial

        def unbound(self, loc, size):
            self.unbound_inputs += 1
            return ensure_initial(self, loc, size)

        monkeypatch.setattr(type(frame), "ensure_initial", unbound)
        frame.ptf.call_memo.clear()
        assert [redispatch(result) for _ in range(2)] == ["miss", "miss"]
        assert not frame.ptf.call_memo

    def test_recursive_call_with_empty_head_summary(self):
        reset_interning()
        r = analyze_source("""
        int x;
        int *deep(int *p, int n) { if (n) return deep(p, n - 1); return 0; }
        int main(void) { int *r = deep(&x, 3); return 0; }
        """)
        (ptf,) = r.ptfs_of("deep")
        assert not ptf.summary()
        assert r.analyzer.stats["recursive_calls"] >= 2  # deferred on every pass
        assert all(key[3] == -1 for key in ptf.call_memo)

    def test_dense_state_is_not_memoized(self):
        r = analyze_source(SRC, options=AnalyzerOptions(state_kind="dense"))
        m = r.analyzer.metrics
        assert m.call_memo_hits == m.call_memo_misses == 0


class TestLookupCacheOff:
    def test_memo_never_runs(self):
        r = analyze_source(SRC, options=AnalyzerOptions(lookup_cache=False))
        m = r.analyzer.metrics
        assert m.call_memo_hits == m.call_memo_misses == 0
        assert all(not p.call_memo for ptfs in r.analyzer.ptfs.values() for p in ptfs)

    def test_counters_in_stats_json(self):
        stats = analyze_source(SRC).analyzer.stats_dict()
        assert stats["counters"]["call_memo_hits"] >= 0
        assert stats["counters"]["call_memo_misses"] > 0


BENCHMARKS = sorted(f[:-2] for f in os.listdir(program_dir()) if f.endswith(".c"))


def _digest(name, options, oracle=False):
    reset_interning()
    program = load_program(load_source(name), f"{name}.c", name)
    if oracle:
        analyzer, result = oracle_result(program, options)
        assert analyzer.violations == []
        checked = analyzer.checked
    else:
        result = run_analysis(program, options)
        checked = result.analyzer.metrics.call_memo_hits
    return build_snapshot(result)["digest"]["program"], checked


@pytest.mark.parametrize("name", BENCHMARKS)
def test_oracle_and_digests_on_benchmarks(name):
    """Every memo hit re-runs clean, and the memoized, re-run and
    uncached analyses agree on the digest."""
    memo, hits = _digest(name, AnalyzerOptions())
    rerun, checked = _digest(name, AnalyzerOptions(), oracle=True)
    plain, none = _digest(name, AnalyzerOptions(lookup_cache=False))
    assert memo == rerun == plain
    assert checked == hits
    assert none == 0


def _points_to(result, names):
    return {v: result.points_to_names("main", v) for v in names}


def check_program(source, names):
    """The oracle finds no hit whose re-run changes anything, and the
    memoized analysis answers like the uncached one."""
    reset_interning()
    analyzer, _ = oracle_result(load_program(source, "gen.c"))
    assert analyzer.violations == [], source
    reset_interning()
    memo = analyze_source(source)
    reset_interning()
    plain = analyze_source(source, options=AnalyzerOptions(lookup_cache=False))
    assert _points_to(memo, names) == _points_to(plain, names), source
    return analyzer.checked


def test_struct_copy():
    check_program(STRUCT_COPY, ["out0", "out1"])


def test_aggregate_argument_gaining_a_pointer_field():
    """``use(a)`` first runs while ``a`` has no pointer field, so its
    dispatch reads no value of ``a``; the loop stores a pointer into
    ``a.p`` two passes later.  The by-value copy still reads ``a``'s
    pointer-location registry, so the call is re-dispatched."""
    source = """
    struct S { int *p; int *r; };
    int x, c;
    int *out;
    void use(struct S s) { out = s.p; }
    int main(void) {
        struct S a;
        struct S *q1 = 0, *q2 = 0, *q3 = 0;
        while (c) {
            use(a);
            q3->p = &x;
            q3 = q2;
            q2 = q1;
            q1 = &a;
        }
        return 0;
    }
    """
    assert check_program(source, ["out", "q1", "q2", "q3"]) > 0
    reset_interning()
    assert analyze_source(source).points_to_names("main", "out") == {"x"}


@given(programs())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_oracle_on_generated_programs(source):
    check_program(source, ALL_VARS)


# -- generated call-heavy programs ---------------------------------------------
#
# test_property's generator calls three small procedures with scalar
# pointers.  This one adds what a call dispatch can read besides scalar
# values: struct arguments by value and by pointer, aggregate copies in
# callees, values that reach a call only after several passes (a chain of
# copies in a loop), recursion and mutual recursion, heap blocks, and
# calls through function-pointer tables.

_CALL_PRELUDE = """
#include <stdlib.h>
struct S { int *a; int *b; };
int x, y, z, c;
int *gp, *gq;
void set(int **slot, int *v) { *slot = v; }
int *get(int **slot) { return *slot; }
void use(struct S s) { gp = s.b; }
void copy(struct S *d, struct S *s) { *d = *s; }
void fld(struct S *d, int *v) { d->b = v; gq = d->a; }
int *rec(int **slot, int n) { if (n) return rec(slot, n - 1); return *slot; }
void ping(int **s, int n);
void pong(int **s, int n) { if (n) ping(s, n - 1); *s = &z; }
void ping(int **s, int n) { if (n) pong(s, n - 1); }
int *f1(void) { return &x; }
int *f2(void) { return gp; }
int *(*tab[2])(void) = { f1, f2 };
"""

CALL_VARS = ["p", "q", "r", "pp", "s1", "s2", "s3", "fp"]

_P = st.sampled_from(["p", "q", "r"])
_I = st.sampled_from(["x", "y", "z"])
_S = st.sampled_from(["a", "b"])
_SP = st.sampled_from(["s1", "s2", "s3"])
_F = st.sampled_from(["a", "b"])  # the fields of struct S

_SIMPLE = [
    st.builds("{} = &{};".format, _P, _I),
    st.builds("{} = {};".format, _P, _P),
    st.builds("*pp = {};".format, _P),
    st.builds("{} = *pp;".format, _P),
    st.builds("pp = &{};".format, _P),
    st.builds("{}.{} = {};".format, _S, _F, _P),
    st.builds("{} = {}.b;".format, _P, _S),
    st.builds("{} = {};".format, _S, _S),
    st.builds("{} = &{};".format, _SP, _S),
    st.builds("s3 = s2; s2 = s1; s1 = &{};".format, _S),
    st.builds("if ({0}) {0}->b = {1};".format, _SP, _P),
    st.builds("if ({0}) {1} = {0}->a;".format, _SP, _P),
    st.builds("set(&{}, &{});".format, _P, _I),
    st.builds("{} = get(pp);".format, _P),
    st.builds("use({});".format, _S),
    st.builds("copy(&{}, &{});".format, _S, _S),
    st.builds("if ({0} && {1}) copy({0}, {1});".format, _SP, _SP),
    st.builds("if ({0}) fld({0}, {1});".format, _SP, _P),
    st.builds("{} = rec(&{}, 2);".format, _P, _P),
    st.builds("ping(&{}, 3);".format, _P),
    st.builds("{} = tab[c & 1]();".format, _P),
    st.builds("fp = c ? f1 : f2; {} = fp();".format, _P),
    st.builds("{} = malloc(sizeof(struct S));".format, _SP),
]


def _statement(depth):
    simple = st.one_of(*_SIMPLE)
    if depth >= 2:
        return simple
    block = st.lists(st.deferred(lambda: _statement(depth + 1)), min_size=1, max_size=4)
    return st.one_of(
        simple,
        st.builds(lambda b, e: f"if (c) {{ {' '.join(b)} }} else {{ {' '.join(e)} }}",
                  block, st.lists(st.deferred(lambda: _statement(depth + 1)), max_size=2)),
        st.builds(lambda b: f"while (c) {{ {' '.join(b)} c--; }}", block),
    )


call_programs = st.lists(_statement(0), min_size=1, max_size=10).map(
    lambda body: _CALL_PRELUDE + """
int main(void) {
    int *p = 0, *q = 0, *r = 0;
    int **pp = &p;
    struct S a, b;
    struct S *s1 = 0, *s2 = 0, *s3 = 0;
    int *(*fp)(void) = f1;
    """ + "\n    ".join(body) + """
    return 0;
}
"""
)


@given(call_programs)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_oracle_on_generated_call_programs(source):
    check_program(source, CALL_VARS)
