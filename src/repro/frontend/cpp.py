"""A miniature C preprocessor.

``pycparser`` parses *preprocessed* C only, and this reproduction must run
offline with no external ``cpp`` binary, so we implement the subset of the
C89/C99 preprocessor that real benchmark programs use:

* comment removal and line splicing (``\\`` continuation),
* ``#include "..."`` and ``#include <...>`` with include paths plus the
  built-in header set in :mod:`repro.frontend.fake_libc`,
* object-like and function-like ``#define`` (with ``#`` stringize, ``##``
  paste, variadic macros, rescanning with self-reference suppression),
* ``#undef``, ``#ifdef`` / ``#ifndef`` / ``#if`` / ``#elif`` / ``#else`` /
  ``#endif`` with full constant-expression evaluation including
  ``defined(X)``,
* ``#error``, ``#warning``, ``#pragma`` (ignored), ``#line``,
* ``__LINE__`` / ``__FILE__`` and ``#line`` emission so downstream
  diagnostics carry original coordinates.

The output is a single translation unit string suitable for pycparser.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

__all__ = ["Preprocessor", "PreprocessorError", "MacroDefinition", "preprocess"]


class PreprocessorError(Exception):
    """A malformed directive, missing include, or #error directive."""

    def __init__(self, message: str, filename: str = "<input>", line: int = 0) -> None:
        super().__init__(f"{filename}:{line}: {message}")
        self.filename = filename
        self.line = line


# -- tokenization -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>L?"(?:[^"\\\n]|\\.)*")
  | (?P<char>L?'(?:[^'\\\n]|\\.)*')
  | (?P<num>\.?\d(?:[\w.]|[eEpP][+-])*)
  | (?P<id>[A-Za-z_]\w*)
  | (?P<punct>\#\#|\#|<<=|>>=|\.\.\.|<<|>>|<=|>=|==|!=|&&|\|\||->|\+\+|--|
      [-+*/%&|^~!<>=?:;,.(){}\[\]])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[str]:
    """Split a preprocessing line into tokens (whitespace collapsed to '')."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # unknown byte: pass it through as its own token
            tokens.append(text[pos])
            pos += 1
            continue
        pos = m.end()
        if m.lastgroup == "ws":
            if tokens and tokens[-1] != "":
                tokens.append("")  # whitespace marker
        else:
            tokens.append(m.group())
    while tokens and tokens[-1] == "":
        tokens.pop()
    while tokens and tokens[0] == "":
        tokens.pop(0)
    return tokens


def detokenize(tokens: Iterable[str]) -> str:
    """Rebuild program text; the '' whitespace markers become single spaces."""
    out: list[str] = []
    prev = ""
    for tok in tokens:
        if tok == "":
            out.append(" ")
            prev = ""
            continue
        # keep identifiers/numbers from gluing together accidentally
        if out and prev and (prev[-1].isalnum() or prev[-1] == "_") and (
            tok[0].isalnum() or tok[0] == "_"
        ):
            out.append(" ")
        out.append(tok)
        prev = tok
    return "".join(out)


# -- macros -----------------------------------------------------------------


@dataclass
class MacroDefinition:
    """One ``#define``; ``params is None`` marks an object-like macro."""

    name: str
    params: Optional[list[str]]
    body: list[str]
    variadic: bool = False

    @property
    def is_function(self) -> bool:
        return self.params is not None


def _strip_ws(tokens: list[str]) -> list[str]:
    return [t for t in tokens if t != ""]


# -- comment removal / line handling ----------------------------------------


def strip_comments(text: str) -> str:
    """Remove comments, preserving newlines so line numbers survive."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                j = n - 2
            out.append(" ")
            out.extend(ch for ch in text[i : j + 2] if ch == "\n")
            i = j + 2
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                if text[j] == "\\":
                    j += 1
                j += 1
            out.append(text[i : j + 1])
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def splice_lines(text: str) -> list[tuple[int, str]]:
    """Join ``\\``-continued lines; returns ``(original_line_no, text)``."""
    raw = text.split("\n")
    out: list[tuple[int, str]] = []
    i = 0
    while i < len(raw):
        start = i
        line = raw[i]
        while line.endswith("\\") and i + 1 < len(raw):
            i += 1
            line = line[:-1] + raw[i]
        out.append((start + 1, line))
        i += 1
    return out


# -- conditional expression evaluation ---------------------------------------


class _CondParser:
    """Recursive-descent evaluator for #if constant expressions."""

    def __init__(self, tokens: list[str]) -> None:
        self.tokens = _strip_ws(tokens)
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Optional[str]:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise PreprocessorError(f"expected {tok!r} in #if expression, got {got!r}")

    def parse(self) -> int:
        value = self.ternary()
        if self.peek() is not None:
            raise PreprocessorError(f"trailing tokens in #if expression: {self.peek()!r}")
        return value

    def ternary(self) -> int:
        cond = self.logical_or()
        if self.peek() == "?":
            self.next()
            a = self.ternary()
            self.expect(":")
            b = self.ternary()
            return a if cond else b
        return cond

    def _binary(self, sub: Callable[[], int], ops: dict[str, Callable[[int, int], int]]) -> int:
        value = sub()
        while self.peek() in ops:
            op = self.next()
            rhs = sub()
            value = ops[op](value, rhs)  # type: ignore[index]
        return value

    def logical_or(self) -> int:
        value = self.logical_and()
        while self.peek() == "||":
            self.next()
            rhs = self.logical_and()
            value = 1 if (value or rhs) else 0
        return value

    def logical_and(self) -> int:
        value = self.bit_or()
        while self.peek() == "&&":
            self.next()
            rhs = self.bit_or()
            value = 1 if (value and rhs) else 0
        return value

    def bit_or(self) -> int:
        return self._binary(self.bit_xor, {"|": lambda a, b: a | b})

    def bit_xor(self) -> int:
        return self._binary(self.bit_and, {"^": lambda a, b: a ^ b})

    def bit_and(self) -> int:
        return self._binary(self.equality, {"&": lambda a, b: a & b})

    def equality(self) -> int:
        return self._binary(
            self.relational,
            {"==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b)},
        )

    def relational(self) -> int:
        return self._binary(
            self.shift,
            {
                "<": lambda a, b: int(a < b),
                ">": lambda a, b: int(a > b),
                "<=": lambda a, b: int(a <= b),
                ">=": lambda a, b: int(a >= b),
            },
        )

    def shift(self) -> int:
        return self._binary(
            self.additive, {"<<": lambda a, b: a << b, ">>": lambda a, b: a >> b}
        )

    def additive(self) -> int:
        return self._binary(
            self.multiplicative, {"+": lambda a, b: a + b, "-": lambda a, b: a - b}
        )

    def multiplicative(self) -> int:
        def div(a: int, b: int) -> int:
            if b == 0:
                raise PreprocessorError("division by zero in #if expression")
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q

        return self._binary(
            self.unary,
            {"*": lambda a, b: a * b, "/": div, "%": lambda a, b: a - b * div(a, b)},
        )

    def unary(self) -> int:
        tok = self.peek()
        if tok == "!":
            self.next()
            return int(not self.unary())
        if tok == "-":
            self.next()
            return -self.unary()
        if tok == "+":
            self.next()
            return self.unary()
        if tok == "~":
            self.next()
            return ~self.unary()
        return self.primary()

    def primary(self) -> int:
        tok = self.next()
        if tok is None:
            raise PreprocessorError("unexpected end of #if expression")
        if tok == "(":
            value = self.ternary()
            self.expect(")")
            return value
        if re.fullmatch(r"0[xX][0-9a-fA-F]+[uUlL]*", tok):
            return int(tok.rstrip("uUlL"), 16)
        if re.fullmatch(r"0\d+[uUlL]*", tok):
            return int(tok.rstrip("uUlL"), 8)
        if re.fullmatch(r"\d+[uUlL]*", tok):
            return int(tok.rstrip("uUlL"), 10)
        if tok.startswith("'"):
            return _char_value(tok)
        if re.fullmatch(r"[A-Za-z_]\w*", tok):
            # undefined identifiers evaluate to 0 (C standard)
            return 0
        raise PreprocessorError(f"bad token in #if expression: {tok!r}")


_ESCAPES = {
    "n": 10, "t": 9, "r": 13, "0": 0, "a": 7, "b": 8, "f": 12, "v": 11,
    "\\": 92, "'": 39, '"': 34, "?": 63,
}


def _char_value(tok: str) -> int:
    body = tok[1:-1]
    if body.startswith("\\"):
        esc = body[1:]
        if esc and esc[0] in "xX":
            return int(esc[1:], 16)
        if esc and esc[0].isdigit():
            return int(esc, 8)
        return _ESCAPES.get(esc[0], ord(esc[0])) if esc else 0
    return ord(body[0]) if body else 0


# -- the preprocessor driver -------------------------------------------------


class Preprocessor:
    """Expand one translation unit to plain C text."""

    MAX_EXPANSION_DEPTH = 200

    def __init__(
        self,
        include_paths: Optional[list[str]] = None,
        defines: Optional[dict[str, str]] = None,
        builtin_headers: Optional[dict[str, str]] = None,
        max_include_depth: int = 50,
    ) -> None:
        if builtin_headers is None:
            from .fake_libc import HEADERS as builtin_headers  # lazy import
        self.include_paths = list(include_paths or [])
        self.builtin_headers = dict(builtin_headers)
        self.macros: dict[str, MacroDefinition] = {}
        self.max_include_depth = max_include_depth
        self.included_once: set[str] = set()
        for name, value in (defines or {}).items():
            self.define_text(name, value)
        # standard predefined macros
        self.define_text("__STDC__", "1")
        self.define_text("__repro__", "1")

    # -- definitions --------------------------------------------------

    def define_text(self, name: str, value: str = "1") -> None:
        """Define an object-like macro from plain text."""
        self.macros[name] = MacroDefinition(name, None, tokenize(value))

    def undef(self, name: str) -> None:
        self.macros.pop(name, None)

    # -- top level -----------------------------------------------------

    def preprocess(self, text: str, filename: str = "<input>") -> str:
        out: list[str] = []
        self._process(text, filename, out, depth=0)
        return "\n".join(out) + "\n"

    # -- internals ------------------------------------------------------

    def _process(self, text: str, filename: str, out: list[str], depth: int) -> None:
        if depth > self.max_include_depth:
            raise PreprocessorError("include depth exceeded", filename)
        lines = splice_lines(strip_comments(text))
        # conditional stack entries: (taking, taken_before, saw_else)
        cond: list[list[bool]] = []
        out.append(f'#line 1 "{filename}"')
        need_line_marker = False

        for lineno, line in lines:
            stripped = line.lstrip()
            if stripped.startswith("#"):
                directive = stripped[1:].lstrip()
                name, _, rest = directive.partition(" ")
                name = name.strip()
                rest = rest.strip()
                # tolerate '#if(x)' style with no space
                m = re.match(r"([A-Za-z_]+)(.*)$", directive)
                if m:
                    name, rest = m.group(1), m.group(2).strip()
                active = all(frame[0] for frame in cond)
                handler = getattr(self, f"_dir_{name}", None)
                if name in ("if", "ifdef", "ifndef", "elif", "else", "endif"):
                    self._conditional(name, rest, cond, filename, lineno)
                elif not active:
                    pass  # any other directive in a dead region is skipped
                elif handler is not None:
                    emitted = handler(rest, filename, lineno, out, depth)
                    need_line_marker = True
                    if emitted:
                        continue
                elif name == "":
                    pass  # null directive
                else:
                    raise PreprocessorError(
                        f"unknown directive #{name}", filename, lineno
                    )
                continue
            if not all(frame[0] for frame in cond):
                continue
            if need_line_marker:
                out.append(f'#line {lineno} "{filename}"')
                need_line_marker = False
            expanded = self._expand_line(line, filename, lineno)
            out.append(expanded)
        if cond:
            raise PreprocessorError("unterminated conditional", filename)

    # conditionals ------------------------------------------------------

    def _conditional(
        self,
        name: str,
        rest: str,
        cond: list[list[bool]],
        filename: str,
        lineno: int,
    ) -> None:
        outer_active = all(frame[0] for frame in cond)
        if name == "if":
            take = outer_active and bool(self._eval_cond(rest, filename, lineno))
            cond.append([take, take, False])
        elif name == "ifdef":
            take = outer_active and rest.split()[0] in self.macros if rest else False
            cond.append([take, take, False])
        elif name == "ifndef":
            take = outer_active and (not rest or rest.split()[0] not in self.macros)
            take = outer_active and take
            cond.append([take, take, False])
        elif name == "elif":
            if not cond:
                raise PreprocessorError("#elif without #if", filename, lineno)
            frame = cond[-1]
            if frame[2]:
                raise PreprocessorError("#elif after #else", filename, lineno)
            outer = all(f[0] for f in cond[:-1])
            if frame[1] or not outer:
                frame[0] = False
            else:
                take = bool(self._eval_cond(rest, filename, lineno))
                frame[0] = take
                frame[1] = take
        elif name == "else":
            if not cond:
                raise PreprocessorError("#else without #if", filename, lineno)
            frame = cond[-1]
            if frame[2]:
                raise PreprocessorError("duplicate #else", filename, lineno)
            outer = all(f[0] for f in cond[:-1])
            frame[0] = outer and not frame[1]
            frame[1] = True
            frame[2] = True
        elif name == "endif":
            if not cond:
                raise PreprocessorError("#endif without #if", filename, lineno)
            cond.pop()

    def _eval_cond(self, text: str, filename: str, lineno: int) -> int:
        tokens = tokenize(text)
        tokens = self._expand_defined(tokens)
        tokens = self._expand_tokens(tokens, set(), filename, lineno, 0)
        try:
            return _CondParser(tokens).parse()
        except PreprocessorError as exc:
            raise PreprocessorError(str(exc), filename, lineno) from None

    def _expand_defined(self, tokens: list[str]) -> list[str]:
        out: list[str] = []
        i = 0
        toks = _strip_ws(tokens)
        while i < len(toks):
            tok = toks[i]
            if tok == "defined":
                if i + 1 < len(toks) and toks[i + 1] == "(":
                    name = toks[i + 2] if i + 2 < len(toks) else ""
                    out.append("1" if name in self.macros else "0")
                    i += 4  # defined ( name )
                else:
                    name = toks[i + 1] if i + 1 < len(toks) else ""
                    out.append("1" if name in self.macros else "0")
                    i += 2
            else:
                out.append(tok)
                i += 1
        return out

    # directives --------------------------------------------------------

    def _dir_include(
        self, rest: str, filename: str, lineno: int, out: list[str], depth: int
    ) -> bool:
        rest = detokenize(
            self._expand_tokens(tokenize(rest), set(), filename, lineno, 0)
        ).strip()
        m = re.match(r'"([^"]+)"', rest) or re.match(r"<([^>]+)>", rest)
        if not m:
            raise PreprocessorError(f"bad #include {rest!r}", filename, lineno)
        target = m.group(1)
        is_system = rest.startswith("<")
        key = f"{is_system}:{target}"
        if key in self.included_once:
            out.append(f'#line {lineno + 1} "{filename}"')
            return True
        text = self._find_include(target, is_system, filename, lineno)
        self._process(text, target, out, depth + 1)
        out.append(f'#line {lineno + 1} "{filename}"')
        return True

    def _find_include(
        self, target: str, is_system: bool, filename: str, lineno: int
    ) -> str:
        if not is_system:
            for base in self.include_paths:
                path = os.path.join(base, target)
                if os.path.isfile(path):
                    with open(path, "r") as f:
                        return f.read()
        if target in self.builtin_headers:
            # builtin headers are include-once by construction
            self.included_once.add(f"{is_system}:{target}")
            return self.builtin_headers[target]
        if is_system:
            for base in self.include_paths:
                path = os.path.join(base, target)
                if os.path.isfile(path):
                    with open(path, "r") as f:
                        return f.read()
        raise PreprocessorError(f"include file not found: {target}", filename, lineno)

    def _dir_define(
        self, rest: str, filename: str, lineno: int, out: list[str], depth: int
    ) -> bool:
        m = re.match(r"([A-Za-z_]\w*)(\()?", rest)
        if not m:
            raise PreprocessorError(f"bad #define {rest!r}", filename, lineno)
        name = m.group(1)
        pos = m.end(1)
        params: Optional[list[str]] = None
        variadic = False
        if m.group(2):  # function-like: no space before '('
            end = rest.find(")", pos)
            if end < 0:
                raise PreprocessorError("unterminated macro params", filename, lineno)
            raw = rest[pos + 1 : end].strip()
            params = []
            if raw:
                for p in raw.split(","):
                    p = p.strip()
                    if p == "...":
                        variadic = True
                    elif p:
                        params.append(p)
            body = rest[end + 1 :].strip()
        else:
            body = rest[pos:].strip()
        self.macros[name] = MacroDefinition(name, params, tokenize(body), variadic)
        return True

    def _dir_undef(
        self, rest: str, filename: str, lineno: int, out: list[str], depth: int
    ) -> bool:
        name = rest.split()[0] if rest.split() else ""
        self.undef(name)
        return True

    def _dir_error(
        self, rest: str, filename: str, lineno: int, out: list[str], depth: int
    ) -> bool:
        raise PreprocessorError(f"#error {rest}", filename, lineno)

    def _dir_warning(
        self, rest: str, filename: str, lineno: int, out: list[str], depth: int
    ) -> bool:
        return True  # ignored

    def _dir_pragma(
        self, rest: str, filename: str, lineno: int, out: list[str], depth: int
    ) -> bool:
        if rest.strip() == "once":
            self.included_once.add(f"True:{filename}")
            self.included_once.add(f"False:{filename}")
        return True

    def _dir_line(
        self, rest: str, filename: str, lineno: int, out: list[str], depth: int
    ) -> bool:
        out.append(f"#line {rest}")
        return True

    # macro expansion ----------------------------------------------------

    def _expand_line(self, line: str, filename: str, lineno: int) -> str:
        tokens = tokenize(line)
        expanded = self._expand_tokens(tokens, set(), filename, lineno, 0)
        indent = line[: len(line) - len(line.lstrip())]
        return indent + detokenize(expanded)

    def _expand_tokens(
        self,
        tokens: list[str],
        hide: set[str],
        filename: str,
        lineno: int,
        depth: int,
    ) -> list[str]:
        if depth > self.MAX_EXPANSION_DEPTH:
            raise PreprocessorError("macro expansion too deep", filename, lineno)
        out: list[str] = []
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok == "__LINE__":
                out.append(str(lineno))
                i += 1
                continue
            if tok == "__FILE__":
                out.append('"' + filename + '"')
                i += 1
                continue
            macro = self.macros.get(tok) if tok not in hide else None
            if macro is None or not re.fullmatch(r"[A-Za-z_]\w*", tok or " "):
                out.append(tok)
                i += 1
                continue
            if macro.is_function:
                # needs a following '(' (possibly after whitespace)
                j = i + 1
                while j < len(tokens) and tokens[j] == "":
                    j += 1
                if j >= len(tokens) or tokens[j] != "(":
                    out.append(tok)
                    i += 1
                    continue
                args, next_i = self._collect_args(tokens, j, filename, lineno)
                body = self._substitute(macro, args, hide, filename, lineno, depth)
                out.extend(
                    self._expand_tokens(
                        body, hide | {tok}, filename, lineno, depth + 1
                    )
                )
                i = next_i
            else:
                body = self._paste(list(macro.body))
                out.extend(
                    self._expand_tokens(
                        body, hide | {tok}, filename, lineno, depth + 1
                    )
                )
                i += 1
        return out

    def _collect_args(
        self, tokens: list[str], open_paren: int, filename: str, lineno: int
    ) -> tuple[list[list[str]], int]:
        args: list[list[str]] = []
        current: list[str] = []
        level = 0
        i = open_paren
        while i < len(tokens):
            tok = tokens[i]
            if tok == "(":
                level += 1
                if level > 1:
                    current.append(tok)
            elif tok == ")":
                level -= 1
                if level == 0:
                    args.append(current)
                    return args, i + 1
                current.append(tok)
            elif tok == "," and level == 1:
                args.append(current)
                current = []
            else:
                current.append(tok)
            i += 1
        raise PreprocessorError("unterminated macro arguments", filename, lineno)

    def _substitute(
        self,
        macro: MacroDefinition,
        args: list[list[str]],
        hide: set[str],
        filename: str,
        lineno: int,
        depth: int,
    ) -> list[str]:
        params = macro.params or []
        # drop the single empty argument of a zero-parameter invocation
        if len(args) == 1 and not _strip_ws(args[0]) and not params and not macro.variadic:
            args = []
        named = {p: args[i] if i < len(args) else [] for i, p in enumerate(params)}
        if macro.variadic:
            rest = args[len(params) :]
            va: list[str] = []
            for k, a in enumerate(rest):
                if k:
                    va.append(",")
                va.extend(a)
            named["__VA_ARGS__"] = va
        out: list[str] = []
        body = macro.body
        i = 0
        while i < len(body):
            tok = body[i]
            nxt = _next_solid(body, i)
            if tok == "#" and nxt is not None and body[nxt] in named:
                out.append(_stringize(named[body[nxt]]))
                i = nxt + 1
                continue
            if nxt is not None and body[nxt] == "##":
                # paste handled in a second pass; substitute raw (no expand)
                pass
            if tok in named:
                arg = named[tok]
                prev_paste = _prev_solid_is(out, "##")
                next_paste = nxt is not None and body[nxt] == "##"
                if prev_paste or next_paste:
                    out.extend(arg)  # raw for pasting
                else:
                    out.extend(
                        self._expand_tokens(
                            list(arg), hide, filename, lineno, depth + 1
                        )
                    )
            else:
                out.append(tok)
            i += 1
        return self._paste(out)

    @staticmethod
    def _paste(tokens: list[str]) -> list[str]:
        out: list[str] = []
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok == "##":
                while out and out[-1] == "":
                    out.pop()
                j = i + 1
                while j < len(tokens) and tokens[j] == "":
                    j += 1
                rhs = tokens[j] if j < len(tokens) else ""
                lhs = out.pop() if out else ""
                glued = lhs + rhs
                if glued:
                    out.extend(tokenize(glued))
                i = j + 1
            else:
                out.append(tok)
                i += 1
        return out


def _next_solid(tokens: list[str], i: int) -> Optional[int]:
    j = i + 1
    while j < len(tokens) and tokens[j] == "":
        j += 1
    return j if j < len(tokens) else None


def _prev_solid_is(tokens: list[str], what: str) -> bool:
    j = len(tokens) - 1
    while j >= 0 and tokens[j] == "":
        j -= 1
    return j >= 0 and tokens[j] == what


def _stringize(tokens: list[str]) -> str:
    text = detokenize(tokens).strip()
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def preprocess(
    text: str,
    filename: str = "<input>",
    include_paths: Optional[list[str]] = None,
    defines: Optional[dict[str, str]] = None,
) -> str:
    """One-shot convenience wrapper around :class:`Preprocessor`."""
    return Preprocessor(include_paths, defines).preprocess(text, filename)
