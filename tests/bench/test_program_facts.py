"""Semantic points-to facts for each benchmark program.

These are the integration tests of the suite: for every Table 2 program,
assert specific pointer facts a correct analysis must report — the kind of
facts a compiler client would consume.
"""

import pytest

from repro.bench import analyze_benchmark


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = analyze_benchmark(name)
        return cache[name]

    return get


class TestAllroots:
    def test_newton_out_params(self, results):
        r = results("allroots")
        # eval_poly writes through val/dval which point at newton's locals
        assert not r.formals_may_alias("eval_poly")
        ptf = r.ptfs_of("eval_poly")[0]
        assert len(ptf.params) >= 2

    def test_find_roots_work_buffer(self, results):
        r = results("allroots")
        # deflate is called with work as both p and q: formals alias
        assert r.formals_may_alias("deflate")


class TestAlvinn:
    def test_forward_pass_formals_disjoint(self, results):
        r = results("alvinn")
        assert not r.formals_may_alias("input_to_hidden")
        assert not r.formals_may_alias("hidden_to_output")

    def test_helpers_pure(self, results):
        r = results("alvinn")
        assert r.is_pure("squash")


class TestGrep:
    def test_match_here_walks_pattern(self, results):
        r = results("grep")
        assert len(r.ptfs_of("match_here")) >= 1

    def test_corpus_strings_reach_matcher(self, results):
        r = results("grep")
        ptf = r.ptfs_of("match")[0]
        assert ptf.initial_entries


class TestDiff:
    def test_edit_list_on_heap(self, results):
        r = results("diff")
        names = r.points_to_names("main", "script")
        assert any("heap" in n for n in names)

    def test_line_text_points_to_samples(self, results):
        r = results("diff")
        # file_a[i].text holds the sample string literals
        assert len(r.ptfs_of("add_line")) >= 1


class TestLex315:
    def test_transitions_on_heap(self, results):
        r = results("lex315")
        ptf = r.ptfs_of("add_edge")[0]
        summary = ptf.summary()
        assert any("heap" in str(v) for vals in summary.values() for v in vals)

    def test_scan_token_moves_cursor(self, results):
        r = results("lex315")
        assert len(r.ptfs_of("scan_token")) >= 1


class TestCompress:
    def test_no_pointer_aliasing_surprises(self, results):
        r = results("compress")
        assert r.stats().avg_ptfs == 1.0


class TestLoader:
    def test_symbols_on_heap(self, results):
        r = results("loader")
        names = r.points_to_names("main", "symtab")
        # the hash table buckets hold heap symbols (via sym_lookup)
        ptfs = r.ptfs_of("sym_lookup")
        assert any(
            "heap" in str(v)
            for ptf in ptfs
            for vals in ptf.summary().values()
            for v in vals
        )

    def test_sections_reference_static_data(self, results):
        r = results("loader")
        assert len(r.ptfs_of("add_section")) >= 1


class TestFootball:
    def test_qsort_comparators_analyzed(self, results):
        r = results("football")
        assert len(r.ptfs_of("by_rating")) >= 1
        assert len(r.ptfs_of("by_offense")) >= 1

    def test_ranking_calls_qsort_with_comparator(self, results):
        r = results("football")
        cg = r.call_graph()
        assert "qsort" in cg["rank_teams"]
        # the comparators were analyzed via the qsort summary's callback
        assert r.analyzer.metrics.libc_calls >= 1
        for cmp_name in ("by_rating", "by_offense"):
            ptf = r.ptfs_of(cmp_name)[0]
            assert ptf.initial_entries  # the callback received arguments


class TestCompiler:
    def test_ast_nodes_heap_allocated(self, results):
        r = results("compiler")
        names = r.points_to_names("main", "ast")
        assert any("heap" in n for n in names)

    def test_parser_procedures_single_ptf(self, results):
        r = results("compiler")
        for proc in ("parse_expr", "parse_term", "parse_stmt", "parse_primary"):
            assert len(r.ptfs_of(proc)) == 1, proc

    def test_codegen_reaches_emit(self, results):
        r = results("compiler")
        cg = r.call_graph()
        assert "emit" in cg["gen_expr"] or "emit" in cg["gen_binop"]


class TestAssembler:
    def test_fixups_reference_symbols(self, results):
        r = results("assembler")
        ptfs = r.ptfs_of("note_fixup")
        assert ptfs and any("heap" in str(v)
                            for ptf in ptfs
                            for vals in ptf.summary().values()
                            for v in vals)


class TestEqntott:
    def test_expression_tree_on_heap(self, results):
        r = results("eqntott")
        names = r.points_to_names("main", "eq")
        assert any("heap" in n for n in names)

    def test_recursive_parser_one_ptf(self, results):
        r = results("eqntott")
        for proc in ("parse_or", "parse_and", "parse_atom"):
            assert len(r.ptfs_of(proc)) <= 2, proc


class TestEar:
    def test_filter_channels_disjoint(self, results):
        r = results("ear")
        assert not r.formals_may_alias("filter_channel")

    def test_agc_state_flows(self, results):
        r = results("ear")
        assert len(r.ptfs_of("agc_step")) >= 1


class TestSimulator:
    def test_dispatch_table_resolves_handlers(self, results):
        r = results("simulator")
        cg = r.call_graph()
        handlers = {"op_halt", "op_loadi", "op_add", "op_load", "op_store"}
        assert handlers <= cg["step"]

    def test_device_handlers_resolve(self, results):
        r = results("simulator")
        cg = r.call_graph()
        assert "console_read" in cg["dev_read"]
        assert "console_write" in cg["dev_write"]

    def test_page_frames_point_into_phys_mem(self, results):
        r = results("simulator")
        ptfs = r.ptfs_of("resolve")
        assert ptfs
        assert any(
            "phys_mem" in str(v)
            for ptf in ptfs
            for vals in ptf.summary().values()
            for v in vals
        )
