"""Library-function summaries.

"Since some of the standard library functions may change the values of
pointers, we provide the analysis with a summary of the potential pointer
assignments in each library function" (§1).  Each summary manipulates the
caller's points-to state directly:

* allocators (``malloc``/``calloc``/``realloc``/``strdup``) return a heap
  block named by the static call site (§3);
* block-copy functions (``memcpy``/``memmove``) move pointer fields between
  the source and destination targets;
* string-searching functions return pointers *into* their argument's block;
* higher-order functions (``qsort``/``bsearch``/``atexit``/``signal``)
  invoke their callback arguments, so callbacks are analyzed like any other
  call — through the normal PTF machinery.

Functions with no pointer effects (``strlen``, math, character class...)
are explicit no-ops so that missing summaries are loud: an unlisted
external function falls through to the engine's external-call policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..frontend.ctypes_model import WORD_SIZE
from ..ir.nodes import CallNode
from ..memory.blocks import HeapBlock, ProcedureBlock, StringBlock
from ..memory.locset import LocationSet
from .context import Frame

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Analyzer
    from .intra import ProcEvaluator

__all__ = ["LibcSummaries"]

EMPTY: frozenset = frozenset()


class LibcSummaries:
    """Registry and application of library summaries."""

    def __init__(self) -> None:
        self._handlers: dict[str, Callable] = {}
        self._register_all()

    def handles(self, name: str) -> bool:
        return name in self._handlers

    def names(self) -> list[str]:
        return sorted(self._handlers)

    def apply(
        self,
        analyzer: "Analyzer",
        frame: Frame,
        evaluator: "ProcEvaluator",
        node: CallNode,
        name: str,
    ) -> None:
        ctx = _CallContext(analyzer, frame, evaluator, node)
        self._handlers[name](ctx)
        analyzer.metrics.libc_calls += 1

    # ------------------------------------------------------------------

    def _register_all(self) -> None:
        h = self._handlers
        for name in ("malloc", "calloc",):
            h[name] = _alloc
        h["realloc"] = _realloc
        h["strdup"] = _strdup
        h["free"] = _noop
        for name in (
            "strlen", "strcmp", "strncmp", "strcoll", "memcmp", "atoi", "atol",
            "atof", "abs", "labs", "rand", "srand", "exit", "abort", "printf",
            "fprintf", "puts", "fputs", "putc", "putchar", "fputc", "fflush",
            "fclose", "feof", "ferror", "clearerr", "perror", "rewind", "fseek",
            "ftell", "remove", "rename", "setbuf", "setvbuf", "isalnum",
            "isalpha", "iscntrl", "isdigit", "isgraph", "islower", "isprint",
            "ispunct", "isspace", "isupper", "isxdigit", "tolower", "toupper",
            "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh",
            "cosh", "tanh", "exp", "log", "log10", "pow", "sqrt", "ceil",
            "floor", "fabs", "fmod", "ldexp", "system", "clock", "time",
            "difftime", "mktime", "fwrite", "ungetc", "getchar", "getc",
            "fgetc", "scanf", "__assert_fail", "strxfrm", "write", "close",
            "read", "unlink", "access", "raise", "div", "ldiv", "strtod",
        ):
            h[name] = _noop
        for name in ("strcpy", "strncpy", "strcat", "strncat", "memset"):
            h[name] = _ret_arg0
        h["memcpy"] = _memcpy
        h["memmove"] = _memcpy
        for name in ("strchr", "strrchr", "strstr", "strpbrk", "strtok", "memchr"):
            h[name] = _ptr_into_arg0
        h["bsearch"] = _bsearch
        h["qsort"] = _qsort
        h["atexit"] = _atexit
        h["signal"] = _signal
        h["fopen"] = _fopen
        h["freopen"] = _fopen
        h["fdopen"] = _fopen
        h["tmpfile"] = _fopen
        h["fgets"] = _fgets
        h["gets"] = _ret_arg0
        h["sprintf"] = _sprintf
        h["snprintf"] = _sprintf
        h["sscanf"] = _sscanf
        h["fscanf"] = _noop
        h["fread"] = _noop
        h["getenv"] = _static_string("getenv")
        h["strerror"] = _static_string("strerror")
        h["tmpnam"] = _static_string("tmpnam")
        h["ctime"] = _static_string("ctime")
        h["asctime"] = _static_string("asctime")
        h["gmtime"] = _static_buffer("gmtime")
        h["localtime"] = _static_buffer("localtime")
        h["strtol"] = _strtol
        h["strtoul"] = _strtol
        h["frexp"] = _noop
        h["modf"] = _noop
        h["strftime"] = _noop
        h["strspn"] = _noop
        h["strcspn"] = _noop
        # §7: "We eventually plan to support setjmp/longjmp calls in a
        # conservative fashion."  In a may-analysis, a longjmp only
        # re-enters code the iterative analysis already covers, and neither
        # call introduces pointer assignments, so scalar no-ops suffice.
        h["setjmp"] = _noop
        h["longjmp"] = _noop


class _CallContext:
    """Bundle passed to each summary handler."""

    def __init__(
        self,
        analyzer: "Analyzer",
        frame: Frame,
        evaluator: "ProcEvaluator",
        node: CallNode,
    ) -> None:
        self.analyzer = analyzer
        self.frame = frame
        self.evaluator = evaluator
        self.node = node

    def arg(self, i: int) -> frozenset:
        """Pointer values of argument ``i`` (empty when absent)."""
        if i >= len(self.node.args):
            return EMPTY
        return self.evaluator.eval_value(self.node.args[i], self.node)

    def heap_block(self, tag: str = "") -> HeapBlock:
        site = self.node.site + (f"#{tag}" if tag else "")
        return self.analyzer.heap_block(site)

    def set_return(self, values: frozenset, may_be_null: bool = True) -> None:
        if self.node.dst is None or not values:
            return
        dsts = self.evaluator.eval_loc(self.node.dst, self.node)
        strong = len(dsts) == 1 and dsts[0].is_unique
        for dst in dsts:
            self.frame.assign(dst, values, self.node, strong)

    def store(self, targets: frozenset, values: frozenset) -> None:
        """Weakly assign ``values`` through every pointer in ``targets``."""
        if not values:
            return
        for t in targets:
            if isinstance(t.base, (ProcedureBlock, StringBlock)):
                continue
            self.frame.assign(t, values, self.node, False)

    def contents(self, pointers: frozenset, blurred: bool = True) -> frozenset:
        """Everything stored in the blocks ``pointers`` point into."""
        out: set[LocationSet] = set()
        for p in pointers:
            probe = p.blurred() if blurred else p
            out |= self.frame.lookup_value(probe, self.node, WORD_SIZE)
        return frozenset(out)


# -- handlers -----------------------------------------------------------


def _noop(ctx: _CallContext) -> None:
    # evaluate arguments for completeness (side effects already lowered)
    for i in range(len(ctx.node.args)):
        ctx.arg(i)


def _alloc(ctx: _CallContext) -> None:
    block = ctx.heap_block()
    ctx.set_return(frozenset({LocationSet(block, 0, 0)}))


def _realloc(ctx: _CallContext) -> None:
    old = ctx.arg(0)
    block = ctx.heap_block()
    new_loc = LocationSet(block, 0, 0)
    # the old contents (including pointers) survive into the new block
    moved = ctx.contents(old)
    if moved:
        ctx.frame.assign(new_loc.blurred(), moved, ctx.node, False)
    ctx.set_return(frozenset({new_loc}) | old)


def _strdup(ctx: _CallContext) -> None:
    ctx.arg(0)
    block = ctx.heap_block()
    ctx.set_return(frozenset({LocationSet(block, 0, 0)}))


def _ret_arg0(ctx: _CallContext) -> None:
    ctx.set_return(ctx.arg(0))


def _ptr_into_arg0(ctx: _CallContext) -> None:
    # returns a pointer somewhere inside the first argument's block(s)
    ctx.set_return(frozenset(v.blurred() for v in ctx.arg(0)))


def _memcpy(ctx: _CallContext) -> None:
    dst = ctx.arg(0)
    src = ctx.arg(1)
    values = ctx.contents(src)
    if values:
        ctx.store(frozenset(d.blurred() for d in dst), values)
    ctx.set_return(dst)


def _fgets(ctx: _CallContext) -> None:
    ctx.set_return(ctx.arg(0))


def _sprintf(ctx: _CallContext) -> None:
    # writes characters; %s reads strings — no pointer stores
    _noop(ctx)


def _sscanf(ctx: _CallContext) -> None:
    # %s and %d targets receive scalars/characters, not pointers
    _noop(ctx)


def _fopen(ctx: _CallContext) -> None:
    _noop(ctx)
    block = ctx.heap_block("FILE")
    ctx.set_return(frozenset({LocationSet(block, 0, 0)}))


def _bsearch(ctx: _CallContext) -> None:
    base = ctx.arg(1)
    _run_comparator(ctx, ctx.arg(4), base)
    ctx.set_return(frozenset(v.blurred() for v in base))


def _qsort(ctx: _CallContext) -> None:
    base = ctx.arg(0)
    _run_comparator(ctx, ctx.arg(3), base)


def _run_comparator(ctx: _CallContext, fnvals: frozenset, base: frozenset) -> None:
    targets = ctx.frame.resolve_fnptr_targets(fnvals)
    elems = frozenset(v.blurred() for v in base)
    for name in sorted(targets):
        ctx.analyzer.call_procedure(
            ctx.frame, ctx.evaluator, ctx.node, name, [elems, elems]
        )


def _atexit(ctx: _CallContext) -> None:
    targets = ctx.frame.resolve_fnptr_targets(ctx.arg(0))
    for name in sorted(targets):
        ctx.analyzer.call_procedure(ctx.frame, ctx.evaluator, ctx.node, name, [])


def _signal(ctx: _CallContext) -> None:
    handler = ctx.arg(1)
    targets = ctx.frame.resolve_fnptr_targets(handler)
    for name in sorted(targets):
        ctx.analyzer.call_procedure(
            ctx.frame, ctx.evaluator, ctx.node, name, [EMPTY]
        )
    # returns the previous handler: conservatively, any handler seen here
    ctx.set_return(handler)


def _strtol(ctx: _CallContext) -> None:
    # *endptr = pointer into the first argument's block
    endptr = ctx.arg(1)
    into = frozenset(v.blurred() for v in ctx.arg(0))
    if into:
        ctx.store(endptr, into)


def _static_string(tag: str) -> Callable[[_CallContext], None]:
    def handler(ctx: _CallContext) -> None:
        _noop(ctx)
        block = ctx.analyzer.libc_static_block(tag)
        ctx.set_return(frozenset({LocationSet(block, 0, 1)}))

    return handler


def _static_buffer(tag: str) -> Callable[[_CallContext], None]:
    return _static_string(tag)
