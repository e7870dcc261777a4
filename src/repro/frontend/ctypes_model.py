"""C type model and memory-layout engine.

The Wilson-Lam analysis is deliberately *not* based on C's high-level types:
memory is modelled as flat blocks addressed by byte offsets and strides
(location sets).  The front end therefore needs exactly one thing from the
type system: a byte-accurate layout — sizes, alignments, field offsets and
array strides — so that lowered expressions carry the right ``(offset,
stride)`` pairs.  This module provides that layout engine.

The target model is a classic ILP32 machine (the paper's DECstation is one):

===============  ====  =====
type             size  align
===============  ====  =====
char / _Bool      1      1
short             2      2
int / long        4      4
long long         8      4
float             4      4
double            8      4
long double       8      4
pointer           4      4
enum              4      4
===============  ====  =====

Struct fields are padded to their alignment, struct alignment is the maximum
field alignment, and the struct size is rounded up to its alignment.  Unions
place every member at offset zero.  These rules match the SysV i386 ABI,
which is close enough to the paper's MIPS target for layout purposes (only
``long long``/``double`` alignment differs, and none of the analysis
decisions depend on it).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..memory.locset import WORD_SIZE

__all__ = [
    "CType",
    "CVoid",
    "CInteger",
    "CFloating",
    "CPointer",
    "CArray",
    "CField",
    "CRecord",
    "CEnum",
    "CFunction",
    "TypeLayoutError",
    "POINTER_SIZE",
    "WORD_SIZE",
    "type_char",
    "type_schar",
    "type_uchar",
    "type_short",
    "type_ushort",
    "type_int",
    "type_uint",
    "type_long",
    "type_ulong",
    "type_longlong",
    "type_ulonglong",
    "type_bool",
    "type_float",
    "type_double",
    "type_longdouble",
    "type_void",
    "type_voidptr",
    "type_charptr",
]

#: Size in bytes of a pointer on the target (ILP32).
POINTER_SIZE = 4

_MAX_ALIGN = 4


class TypeLayoutError(Exception):
    """Raised when a size or offset is requested for an incomplete type."""


@dataclass(frozen=True)
class CType:
    """Base class for all C types in the model."""

    @property
    def size(self) -> int:
        """Size of the type in bytes."""
        raise TypeLayoutError(f"type {self!r} has no size")

    @property
    def align(self) -> int:
        """Alignment requirement of the type in bytes."""
        raise TypeLayoutError(f"type {self!r} has no alignment")

    @property
    def is_complete(self) -> bool:
        """Whether the size of the type is known."""
        try:
            self.size
        except TypeLayoutError:
            return False
        return True

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, CPointer)

    @property
    def is_record(self) -> bool:
        return isinstance(self, CRecord)

    @property
    def is_array(self) -> bool:
        return isinstance(self, CArray)

    @property
    def is_function(self) -> bool:
        return isinstance(self, CFunction)

    @property
    def is_arithmetic(self) -> bool:
        return isinstance(self, (CInteger, CFloating, CEnum))

    @property
    def is_scalar(self) -> bool:
        return self.is_arithmetic or self.is_pointer

    def may_hold_pointer(self) -> bool:
        """Conservative test: could a value of this type carry a pointer?

        The analysis itself never trusts this — any memory word may hold a
        pointer — but clients use it to prune reporting.
        """
        if self.is_pointer:
            return True
        if isinstance(self, CInteger):
            # ints are routinely cast to/from pointers in real C programs
            return self.size >= POINTER_SIZE
        if isinstance(self, CArray):
            return self.element.may_hold_pointer()
        if isinstance(self, CRecord):
            return any(f.ctype.may_hold_pointer() for f in self.fields)
        return False


@dataclass(frozen=True)
class CVoid(CType):
    """The ``void`` type."""

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class CInteger(CType):
    """Integer types, identified by kind and signedness."""

    kind: str  # "char" | "short" | "int" | "long" | "longlong" | "bool"
    signed: bool = True

    _SIZES = {"bool": 1, "char": 1, "short": 2, "int": 4, "long": 4, "longlong": 8}

    @property
    def size(self) -> int:
        return self._SIZES[self.kind]

    @property
    def align(self) -> int:
        return min(self.size, _MAX_ALIGN)

    def __str__(self) -> str:
        prefix = "" if self.signed else "unsigned "
        name = {"longlong": "long long", "bool": "_Bool"}.get(self.kind, self.kind)
        return prefix + name


@dataclass(frozen=True)
class CFloating(CType):
    """Floating-point types."""

    kind: str  # "float" | "double" | "longdouble"

    _SIZES = {"float": 4, "double": 8, "longdouble": 8}

    @property
    def size(self) -> int:
        return self._SIZES[self.kind]

    @property
    def align(self) -> int:
        return min(self.size, _MAX_ALIGN)

    def __str__(self) -> str:
        return {"longdouble": "long double"}.get(self.kind, self.kind)


@dataclass(frozen=True)
class CPointer(CType):
    """Pointer to ``pointee``."""

    pointee: CType

    @property
    def size(self) -> int:
        return POINTER_SIZE

    @property
    def align(self) -> int:
        return POINTER_SIZE

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class CArray(CType):
    """Array of ``length`` elements (``length is None`` for incomplete arrays)."""

    element: CType
    length: Optional[int] = None

    @property
    def size(self) -> int:
        if self.length is None:
            raise TypeLayoutError(f"incomplete array type {self!r} has no size")
        return self.element.size * self.length

    @property
    def align(self) -> int:
        return self.element.align

    @property
    def stride(self) -> int:
        """The stride contributed by indexing this array (element size)."""
        return self.element.size

    def __str__(self) -> str:
        n = "" if self.length is None else str(self.length)
        return f"{self.element}[{n}]"


@dataclass(frozen=True)
class CField:
    """A named member of a struct or union with its computed byte offset."""

    name: str
    ctype: CType
    offset: int
    bit_offset: int = 0
    bit_width: Optional[int] = None  # None for ordinary (non-bitfield) members


@dataclass(frozen=True)
class CRecord(CType):
    """A struct or union.

    Instances are created complete (via :meth:`build`) or incomplete (forward
    declarations); completing a record produces a *new* frozen instance, and
    the :class:`TypeTable` below keeps tag identity.
    """

    tag: Optional[str]
    is_union: bool = False
    fields: tuple[CField, ...] = ()
    complete: bool = False
    _size: int = 0
    _align: int = 1

    @property
    def size(self) -> int:
        if not self.complete:
            kind = "union" if self.is_union else "struct"
            raise TypeLayoutError(f"incomplete {kind} {self.tag!r} has no size")
        return self._size

    @property
    def align(self) -> int:
        if not self.complete:
            raise TypeLayoutError(f"incomplete record {self.tag!r} has no alignment")
        return self._align

    def field(self, name: str) -> CField:
        """Look up a member by name, descending into anonymous members."""
        found = self.find_field(name)
        if found is None:
            raise TypeLayoutError(f"record {self.tag!r} has no field {name!r}")
        return found

    def find_field(self, name: str) -> Optional[CField]:
        for f in self.fields:
            if f.name == name:
                return f
        # anonymous struct/union members contribute their fields directly
        for f in self.fields:
            if f.name is None and isinstance(f.ctype, CRecord):
                inner = f.ctype.find_field(name)
                if inner is not None:
                    return dataclasses.replace(inner, offset=f.offset + inner.offset)
        return None

    @staticmethod
    def build(
        tag: Optional[str],
        members: Sequence[tuple[Optional[str], CType, Optional[int]]],
        is_union: bool = False,
    ) -> "CRecord":
        """Compute the layout for a struct/union from ``(name, type, bitwidth)``.

        Bit-fields are packed into successive units of their declared type;
        a zero-width bit-field forces alignment to the next unit, per C99.
        """
        fields: list[CField] = []
        offset = 0
        max_align = 1
        max_size = 0
        bit_pos = 0  # bit position within the current bit-field unit
        bit_unit_offset = 0
        bit_unit_size = 0

        def close_bit_unit() -> None:
            nonlocal bit_pos, bit_unit_size, offset
            if bit_unit_size:
                offset = bit_unit_offset + bit_unit_size
                bit_pos = 0
                bit_unit_size = 0

        for name, ctype, bit_width in members:
            align = ctype.align if ctype.is_complete else 1
            max_align = max(max_align, align)
            if is_union:
                fsize = ctype.size if ctype.is_complete else 0
                if bit_width is not None:
                    fsize = ctype.size
                fields.append(CField(name, ctype, 0, 0, bit_width))
                max_size = max(max_size, fsize)
                continue
            if bit_width is not None:
                unit = ctype.size
                if bit_width == 0:
                    close_bit_unit()
                    # round up to the next unit boundary
                    offset = _round_up(offset, unit)
                    continue
                if bit_unit_size != unit or bit_pos + bit_width > unit * 8:
                    close_bit_unit()
                    offset = _round_up(offset, align)
                    bit_unit_offset = offset
                    bit_unit_size = unit
                    bit_pos = 0
                fields.append(CField(name, ctype, bit_unit_offset, bit_pos, bit_width))
                bit_pos += bit_width
                continue
            close_bit_unit()
            offset = _round_up(offset, align)
            fields.append(CField(name, ctype, offset))
            offset += ctype.size if ctype.is_complete else 0
        close_bit_unit()

        if is_union:
            size = _round_up(max_size, max_align)
        else:
            size = _round_up(offset, max_align)
        return CRecord(
            tag=tag,
            is_union=is_union,
            fields=tuple(fields),
            complete=True,
            _size=size,
            _align=max_align,
        )

    def __str__(self) -> str:
        kind = "union" if self.is_union else "struct"
        return f"{kind} {self.tag or '<anon>'}"


@dataclass(frozen=True)
class CEnum(CType):
    """An enumeration; represented as ``int`` on the target."""

    tag: Optional[str]
    values: tuple[tuple[str, int], ...] = ()

    @property
    def size(self) -> int:
        return 4

    @property
    def align(self) -> int:
        return 4

    def __str__(self) -> str:
        return f"enum {self.tag or '<anon>'}"


@dataclass(frozen=True)
class CFunction(CType):
    """A function type.  Functions have no size; pointers to them do."""

    ret: CType
    params: tuple[CType, ...] = ()
    varargs: bool = False

    @property
    def size(self) -> int:
        raise TypeLayoutError("function types have no size")

    @property
    def align(self) -> int:
        return 1

    def __str__(self) -> str:
        ps = ", ".join(str(p) for p in self.params)
        if self.varargs:
            ps = f"{ps}, ..." if ps else "..."
        return f"{self.ret}({ps})"


def _round_up(value: int, align: int) -> int:
    if align <= 1:
        return value
    return (value + align - 1) // align * align


# Convenient singletons ------------------------------------------------------

type_void = CVoid()
type_bool = CInteger("bool", signed=False)
type_char = CInteger("char")
type_schar = CInteger("char", signed=True)
type_uchar = CInteger("char", signed=False)
type_short = CInteger("short")
type_ushort = CInteger("short", signed=False)
type_int = CInteger("int")
type_uint = CInteger("int", signed=False)
type_long = CInteger("long")
type_ulong = CInteger("long", signed=False)
type_longlong = CInteger("longlong")
type_ulonglong = CInteger("longlong", signed=False)
type_float = CFloating("float")
type_double = CFloating("double")
type_longdouble = CFloating("longdouble")
type_voidptr = CPointer(type_void)
type_charptr = CPointer(type_char)
