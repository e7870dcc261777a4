"""Additional library-summary coverage."""

import pytest

from repro import analyze_source

from ..memory.dense_oracle import both_kinds


class TestStdio:
    def test_stdio_streams_declared(self):
        src = """
        #include <stdio.h>
        int main(void){
            FILE *out = stdout;
            fprintf(out, "x");
            return 0;
        }
        """
        for r in both_kinds(src):
            assert len(r.ptfs_of("main")) == 1

    def test_freopen_returns_file(self):
        src = """
        #include <stdio.h>
        int main(void){
            FILE *f = freopen("a", "r", stdin);
            return f != 0;
        }
        """
        for r in both_kinds(src):
            assert any("heap" in n for n in r.points_to_names("main", "f"))

    def test_tmpnam_static_buffer(self):
        src = """
        #include <stdio.h>
        int main(void){ char *n = tmpnam(0); return n != 0; }
        """
        for r in both_kinds(src):
            assert any("tmpnam" in n for n in r.points_to_names("main", "n"))


class TestStringExtra:
    def test_strncpy_returns_dest(self):
        src = """
        #include <string.h>
        int main(void){
            char dst[8];
            char *r = strncpy(dst, "abc", 3);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert any("dst" in n for n in r.points_to_names("main", "r"))

    def test_strtok_points_into_argument(self):
        src = """
        #include <string.h>
        int main(void){
            char buf[32];
            char *tok = strtok(buf, " ");
            return 0;
        }
        """
        for r in both_kinds(src):
            assert any("buf" in n for n in r.points_to_names("main", "tok"))

    def test_memmove_moves_pointers(self):
        src = """
        #include <string.h>
        int g;
        int main(void){
            int *a[2]; int *b[2];
            a[0] = &g;
            memmove(b, a, sizeof(a));
            int *q = b[1];
            return 0;
        }
        """
        for r in both_kinds(src):
            assert "g" in r.points_to_names("main", "q")

    def test_memchr_blurred_result(self):
        src = """
        #include <string.h>
        int main(void){
            char buf[16];
            char *hit = memchr(buf, 'x', 16);
            return 0;
        }
        """
        for r in both_kinds(src):
            locs = r.points_to("main", "hit")
            assert any(l.stride == 1 for l in locs)


class TestTime:
    def test_localtime_static_buffer(self):
        src = """
        #include <time.h>
        int main(void){
            time_t t = time(0);
            struct tm *parts = localtime(&t);
            return parts != 0;
        }
        """
        for r in both_kinds(src):
            assert any("localtime" in n for n in r.points_to_names("main", "parts"))

    def test_ctime_static_string(self):
        src = """
        #include <time.h>
        int main(void){
            time_t t = 0;
            char *s = ctime(&t);
            return s != 0;
        }
        """
        for r in both_kinds(src):
            assert any("ctime" in n for n in r.points_to_names("main", "s"))


class TestAllocatorsExtra:
    def test_malloc_in_loop_single_block(self):
        src = """
        #include <stdlib.h>
        int main(void){
            int i;
            int *last = 0;
            for (i = 0; i < 10; i++)
                last = malloc(4);
            return last != 0;
        }
        """
        for r in both_kinds(src):
            names = r.points_to_names("main", "last")
            assert len(names) == 1  # one static site (§3)

    def test_conditional_malloc_null_merge(self):
        src = """
        #include <stdlib.h>
        int c;
        int main(void){
            int *p = 0;
            if (c) p = malloc(4);
            return p != 0;
        }
        """
        for r in both_kinds(src):
            names = r.points_to_names("main", "p")
            assert len(names) == 1 and any("heap" in n for n in names)

    def test_nested_allocation_sites_distinct(self):
        src = """
        #include <stdlib.h>
        struct pair { int *first; int *second; };
        int main(void){
            struct pair *p = malloc(sizeof(struct pair));
            p->first = malloc(4);
            p->second = malloc(4);
            int *a = p->first;
            int *b = p->second;
            return 0;
        }
        """
        for r in both_kinds(src):
            a = r.points_to_names("main", "a")
            b = r.points_to_names("main", "b")
            assert a != b


class TestSignalExtra:
    def test_sig_constant_handlers_no_crash(self):
        src = """
        #include <signal.h>
        int main(void){
            signal(SIGINT, SIG_IGN);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert len(r.ptfs_of("main")) == 1

    def test_handler_side_effects_analyzed(self):
        src = """
        #include <signal.h>
        int g;
        int *latched;
        void on_int(int sig) { latched = &g; }
        int main(void){
            signal(SIGINT, on_int);
            return 0;
        }
        """
        for r in both_kinds(src):
            assert r.points_to_names("main", "latched") == {"g"}
