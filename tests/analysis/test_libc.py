"""Library-function summaries (§1): allocators, copies, callbacks."""

import pytest

from repro import analyze_source, AnalyzerOptions
from repro.analysis.libc import LibcSummaries

from ..memory.dense_oracle import both_kinds


class TestAllocators:
    def test_malloc_distinct_sites(self):
        src = """
        #include <stdlib.h>
        int main(void) {
            int *p = malloc(4);
            int *q = malloc(4);
            return 0;
        }
        """
        for r in both_kinds(src):
            p = r.points_to_names("main", "p")
            q = r.points_to_names("main", "q")
            assert p and q and p != q  # separate static allocation sites

    def test_calloc(self):
        src = "#include <stdlib.h>\nint main(void){ int *p = calloc(2, 4); return 0; }"
        for r in both_kinds(src):
            assert any("heap" in n for n in r.points_to_names("main", "p"))

    def test_realloc_keeps_contents(self):
        src = """
        #include <stdlib.h>
        int g;
        int main(void) {
            int **p = malloc(8);
            *p = &g;
            p = realloc(p, 16);
            int *q = *p;
            return 0;
        }
        """
        for r in both_kinds(src):
            assert "g" in r.points_to_names("main", "q")

    def test_strdup_is_fresh_heap(self):
        src = """
        #include <string.h>
        int main(void) { char *s = strdup("hi"); return 0; }
        """
        for r in both_kinds(src):
            assert any("heap" in n for n in r.points_to_names("main", "s"))

    def test_free_is_noop(self):
        src = """
        #include <stdlib.h>
        int main(void) {
            int *p = malloc(4);
            free(p);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert any("heap" in n for n in r.points_to_names("main", "p"))


class TestStringFunctions:
    def test_strcpy_returns_dest(self):
        src = """
        #include <string.h>
        int main(void) {
            char buf[16];
            char *r = strcpy(buf, "x");
            return 0;
        }
        """
        for r in both_kinds(src):
            assert any("buf" in n for n in r.points_to_names("main", "r"))

    def test_strchr_points_into_argument(self):
        src = """
        #include <string.h>
        int main(void) {
            char buf[16];
            char *r = strchr(buf, 'a');
            return 0;
        }
        """
        for r in both_kinds(src):
            assert any("buf" in n for n in r.points_to_names("main", "r"))

    def test_memcpy_moves_pointers(self):
        src = """
        #include <string.h>
        int g;
        int main(void) {
            int *src_arr[2];
            int *dst_arr[2];
            src_arr[0] = &g;
            memcpy(dst_arr, src_arr, sizeof(src_arr));
            int *p = dst_arr[0];
            return 0;
        }
        """
        for r in both_kinds(src):
            assert "g" in r.points_to_names("main", "p")

    def test_strtol_endptr(self):
        src = """
        #include <stdlib.h>
        int main(void) {
            char buf[8];
            char *end;
            long v = strtol(buf, &end, 10);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert any("buf" in n for n in r.points_to_names("main", "end"))

    def test_getenv_static_storage(self):
        src = """
        #include <stdlib.h>
        int main(void) { char *home = getenv("HOME"); return 0; }
        """
        for r in both_kinds(src):
            assert any("getenv" in n for n in r.points_to_names("main", "home"))


class TestCallbacks:
    def test_qsort_analyzes_comparator(self):
        src = """
        #include <stdlib.h>
        int *seen;
        int cmp(const void *a, const void *b) {
            seen = (int *)a;
            return *(int *)a - *(int *)b;
        }
        int main(void) {
            int vals[8];
            qsort(vals, 8, sizeof(int), cmp);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert any("vals" in n for n in r.points_to_names("main", "seen"))
            assert len(r.ptfs_of("cmp")) >= 1

    def test_bsearch_return_and_callback(self):
        src = """
        #include <stdlib.h>
        int cmp(const void *a, const void *b) { return 0; }
        int main(void) {
            int vals[8];
            int key = 3;
            int *hit = bsearch(&key, vals, 8, sizeof(int), cmp);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert any("vals" in n for n in r.points_to_names("main", "hit"))
            assert len(r.ptfs_of("cmp")) >= 1

    def test_atexit_analyzes_handler(self):
        src = """
        #include <stdlib.h>
        int g;
        int *p;
        void cleanup(void) { p = &g; }
        int main(void) { atexit(cleanup); return 0; }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"g"}

    def test_signal_returns_old_handler(self):
        src = """
        #include <signal.h>
        void handler(int sig) { }
        int main(void) {
            void (*old)(int) = signal(SIGINT, handler);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert any("handler" in n for n in r.points_to_names("main", "old"))


class TestStdio:
    def test_fopen_returns_file_block(self):
        src = """
        #include <stdio.h>
        int main(void) { FILE *f = fopen("x", "r"); return 0; }
        """
        for r in both_kinds(src):
            assert any("heap" in n for n in r.points_to_names("main", "f"))

    def test_fgets_returns_buffer(self):
        src = """
        #include <stdio.h>
        int main(void) {
            char line[64];
            FILE *f = fopen("x", "r");
            char *got = fgets(line, 64, f);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert any("line" in n for n in r.points_to_names("main", "got"))

    def test_printf_harmless(self):
        src = """
        #include <stdio.h>
        int g;
        int main(void) {
            int *p = &g;
            printf("%p\\n", (void *)p);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "p") == {"g"}


class TestExternalPolicy:
    def test_unknown_external_havoc(self):
        src = """
        void mystery(int **p);
        int main(void) {
            int *q = 0;
            mystery(&q);
            return 0;
        }
        """
        r = analyze_source(src, options=AnalyzerOptions(external_policy="havoc"))
        # q may now point at the external world
        assert r.points_to_names("main", "q") != set()

    def test_unknown_external_ignore(self):
        src = """
        void mystery(int **p);
        int main(void) {
            int *q = 0;
            mystery(&q);
            return 0;
        }
        """
        r = analyze_source(src, options=AnalyzerOptions(external_policy="ignore"))
        assert r.points_to_names("main", "q") == set()

    def test_registry_covers_common_names(self):
        libc = LibcSummaries()
        for name in ("malloc", "free", "memcpy", "strcpy", "qsort", "printf",
                     "fopen", "strtol", "strchr", "realloc"):
            assert libc.handles(name), name

    def test_registry_rejects_unknown(self):
        assert not LibcSummaries().handles("definitely_not_libc")
