"""IR expressions in *points-to form* (§4.4).

When the front end builds the flow graph it converts every assignment into
points-to form: a variable reference on the right-hand side reads the
*contents* of that variable, so lowering adds an extra dereference to each
rvalue.  After lowering, an operand is a :class:`ValueExpr` — a small set of
terms, each either

* the **address** of a location expression (``&x``, ``a`` decaying to
  ``&a[0]``, a string literal, a function name),
* the **contents** of a location expression (``x``, ``*p``, ``p->f``), or
* an **unknown** non-pointer value (integer literals, the result of
  arithmetic that cannot carry a pointer).

A location expression is either a *constant location set* relative to a
named symbol, or a *dereference* of a pointer-valued :class:`ValueExpr`
decorated with a byte offset and stride ("we simply keep a list of all the
constant location sets and dereference subexpressions found in other
arithmetic expressions", §4.4).

Pointer arithmetic appears as an :class:`AdjustTerm`: simple increments fold
into strides, and arbitrary arithmetic *blurs* the value to a stride-1
whole-block set (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..frontend.ctypes_model import WORD_SIZE

__all__ = [
    "Symbol",
    "LocalSymbol",
    "GlobalSymbol",
    "ProcSymbol",
    "StringSymbol",
    "LocExpr",
    "SymbolLoc",
    "DerefLoc",
    "ValueExpr",
    "Term",
    "AddressTerm",
    "ContentsTerm",
    "AdjustTerm",
    "UnknownTerm",
    "UNKNOWN",
    "unknown_value",
    "address_of",
    "contents_of",
]


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Symbol:
    """A named storage root the front end resolved an identifier to."""

    name: str
    size: Optional[int] = None

    def __str__(self) -> str:
        return self.name


@dataclass(eq=False)
class LocalSymbol(Symbol):
    """A local variable or formal parameter of one procedure."""

    proc_name: str = ""
    is_formal: bool = False
    formal_index: int = -1


@dataclass(eq=False)
class GlobalSymbol(Symbol):
    """A file-scope variable (including ``static`` locals, which share the
    lifetime and aliasing behaviour of globals)."""

    is_static: bool = False


@dataclass(eq=False)
class ProcSymbol(Symbol):
    """A function name; its address is a function-pointer value."""


@dataclass(eq=False)
class StringSymbol(Symbol):
    """A string literal; ``site`` makes distinct literals distinct blocks."""

    text: str = ""
    site: str = ""


# ---------------------------------------------------------------------------
# Location expressions
# ---------------------------------------------------------------------------


class LocExpr:
    """An expression denoting a set of memory locations (an lvalue)."""

    __slots__ = ()


@dataclass(frozen=True)
class SymbolLoc(LocExpr):
    """A constant location set: ``(symbol, offset, stride)``."""

    symbol: Symbol
    offset: int = 0
    stride: int = 0

    def __str__(self) -> str:
        if self.offset or self.stride:
            return f"{self.symbol.name}[{self.offset}:{self.stride}]"
        return self.symbol.name


@dataclass(frozen=True)
class DerefLoc(LocExpr):
    """Locations reached by dereferencing ``pointer`` then applying
    ``offset``/``stride`` (field access / array indexing through the
    pointer).  ``blur`` marks values produced by arbitrary arithmetic."""

    pointer: "ValueExpr"
    offset: int = 0
    stride: int = 0
    blur: bool = False

    def __str__(self) -> str:
        s = f"*({self.pointer})"
        if self.offset or self.stride:
            s += f"[{self.offset}:{self.stride}]"
        if self.blur:
            s += "?"
        return s


# ---------------------------------------------------------------------------
# Value expressions
# ---------------------------------------------------------------------------


class Term:
    """One alternative contributing to a :class:`ValueExpr`."""

    __slots__ = ()


@dataclass(frozen=True)
class AddressTerm(Term):
    """The address of the locations denoted by ``loc``."""

    loc: LocExpr

    def __str__(self) -> str:
        return f"&{self.loc}"


@dataclass(frozen=True)
class ContentsTerm(Term):
    """The value stored in the locations denoted by ``loc``."""

    loc: LocExpr
    size: int = WORD_SIZE

    def __str__(self) -> str:
        return f"{self.loc}"


@dataclass(frozen=True)
class AdjustTerm(Term):
    """Pointer arithmetic applied to an inner value.

    For each pointer value ``v`` of ``value``: yield
    ``v.with_offset(offset).with_stride(stride)``, or ``v.blurred()`` when
    ``blur`` is set.  Simple increments land here with a stride and no blur.
    """

    value: "ValueExpr"
    offset: int = 0
    stride: int = 0
    blur: bool = False

    def __str__(self) -> str:
        tag = "?" if self.blur else f"+{self.offset}:{self.stride}"
        return f"({self.value}){tag}"


@dataclass(frozen=True)
class UnknownTerm(Term):
    """A value that cannot carry a pointer."""

    def __str__(self) -> str:
        return "<unknown>"


UNKNOWN = UnknownTerm()


@dataclass(frozen=True)
class ValueExpr:
    """A set of alternative terms; the value is the union of all of them."""

    terms: tuple[Term, ...] = (UNKNOWN,)

    @property
    def is_unknown(self) -> bool:
        return all(isinstance(t, UnknownTerm) for t in self.terms)

    def __str__(self) -> str:
        return " | ".join(str(t) for t in self.terms)


def unknown_value() -> ValueExpr:
    """A :class:`ValueExpr` carrying no pointer information."""
    return ValueExpr((UNKNOWN,))


def address_of(loc: LocExpr) -> ValueExpr:
    return ValueExpr((AddressTerm(loc),))


def contents_of(loc: LocExpr, size: int = WORD_SIZE) -> ValueExpr:
    return ValueExpr((ContentsTerm(loc, size),))
