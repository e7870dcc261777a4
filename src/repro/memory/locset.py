"""Location sets: ``(base, offset, stride)`` triples (§3.1, Figure 5).

A location set names the byte positions ``{offset + i * stride | i ∈ Z}``
within one memory block.  Offsets and strides are measured in bytes.

Normalization rules from the paper:

* For array references the stride is the element size; for everything else
  the stride is zero.
* An array nested inside a structure may be indexed out of bounds, so it is
  treated as overlapping the *entire* structure; consequently whenever the
  stride is non-zero the offset is reduced modulo the stride (``offset <
  stride`` always holds for strided sets).
* When the position within a block is entirely unknown (complex pointer
  arithmetic), the stride is set to one: the set covers every byte of the
  block.
* Offsets of stride-zero sets may be negative (§3.2, Figure 7): when a
  pointer to a field is seen before a pointer to its enclosing structure,
  the enclosing structure lies at a negative offset from the extended
  parameter that was created for the field.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator

from .blocks import MemoryBlock

__all__ = [
    "WORD_SIZE",
    "LocationSet",
    "locations_overlap",
    "ranges_overlap_mod",
    "locsets_interned",
]

#: The machine word size (ILP32); the paper's assignment evaluation
#: distinguishes "one word or less" from aggregate (multi-word)
#: assignments.  Defined here, beside the overlap tests it sizes, so the
#: query engine can use it without loading the C type model.
WORD_SIZE = 4

#: monotone count of canonical location-set instances created in this
#: process; the snapshot layer's memory profile reads per-run deltas of it
#: (the per-block tables die with their blocks, so a live sum would need a
#: global block registry)
_locsets_interned = 0


def locsets_interned() -> int:
    """Monotone count of canonical location sets created this process."""
    return _locsets_interned


class LocationSet:
    """A set of byte positions within one block of memory.

    Location sets are hash-consed: constructing one returns the block's
    canonical instance for the stride-normalized ``(offset, stride)``, kept
    in ``base._locset_interns`` so the table lives exactly as long as the
    block.  Equal sets are therefore the same object and equality is
    identity.  The hash is the deterministic ``hash((base.uid, offset,
    stride))``, computed once, so set iteration orders do not depend on
    object addresses.  Instances are immutable.
    """

    __slots__ = ("base", "offset", "stride", "_hash")

    base: MemoryBlock
    offset: int
    stride: int

    def __new__(
        cls, base: MemoryBlock, offset: int = 0, stride: int = 0
    ) -> "LocationSet":
        if stride:
            if stride < 0:
                raise ValueError(f"negative stride {stride}")
            # keep the invariant offset ∈ [0, stride)
            offset %= stride
        table = base._locset_interns
        self = table.get((offset, stride))
        if self is None:
            global _locsets_interned
            _locsets_interned += 1
            self = object.__new__(cls)
            init = object.__setattr__
            init(self, "base", base)
            init(self, "offset", offset)
            init(self, "stride", stride)
            init(self, "_hash", hash((base.uid, offset, stride)))
            table[(offset, stride)] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # unpickling and copying rebuild through __new__: the canonical
        # instance of the (possibly copied) base block
        return (LocationSet, (self.base, self.offset, self.stride))

    def __repr__(self) -> str:
        return (
            f"LocationSet(base={self.base!r}, offset={self.offset!r}, "
            f"stride={self.stride!r})"
        )

    # -- derived sets --------------------------------------------------

    def with_offset(self, delta: int) -> "LocationSet":
        """The location set shifted by ``delta`` bytes (field access)."""
        return LocationSet(self.base, self.offset + delta, self.stride)

    def with_stride(self, stride: int) -> "LocationSet":
        """Combine with an additional stride (array indexing).

        Strides compose by gcd: indexing a strided set with a new element
        size yields positions reachable by integer combinations of both
        strides.
        """
        if stride == 0:
            return self
        return LocationSet(self.base, self.offset, gcd(self.stride, stride))

    def blurred(self) -> "LocationSet":
        """The whole-block set used for unknown pointer arithmetic (§3.1)."""
        return LocationSet(self.base, 0, 1)

    # -- predicates -----------------------------------------------------

    @property
    def is_whole_block(self) -> bool:
        return self.stride == 1

    @property
    def is_unique(self) -> bool:
        """Whether this names one location: no stride and a unique base (§4.1)."""
        return self.stride == 0 and self.base.is_unique

    def contains(self, position: int) -> bool:
        """Whether byte ``position`` is a member of this set."""
        if self.stride == 0:
            return position == self.offset
        return position % self.stride == self.offset

    def positions(self, limit: int) -> Iterator[int]:
        """Enumerate the first non-negative positions (for display/tests)."""
        if self.stride == 0:
            yield self.offset
            return
        pos = self.offset
        for _ in range(limit):
            yield pos
            pos += self.stride

    def overlaps(self, other: "LocationSet", width: int = 1, other_width: int = 1) -> bool:
        """Whether an access of ``width`` bytes at any of our positions can
        touch an access of ``other_width`` bytes at any of ``other``'s.

        Values assigned through one location set must be observed through
        every overlapping one (§4.3).
        """
        if self.base is not other.base:
            return False
        return ranges_overlap_mod(
            self.offset, self.stride, width, other.offset, other.stride, other_width
        )

    def __str__(self) -> str:
        if self.stride:
            return f"({self.base.name}, {self.offset}, {self.stride})"
        return f"({self.base.name}, {self.offset})"


def ranges_overlap_mod(
    off_a: int, stride_a: int, width_a: int, off_b: int, stride_b: int, width_b: int
) -> bool:
    """Whether ``[off_a + i*stride_a, +width_a)`` intersects
    ``[off_b + j*stride_b, +width_b)`` for some integers ``i, j``.

    With ``g = gcd(stride_a, stride_b)`` the achievable differences
    ``t = (off_b + j*stride_b) - (off_a + i*stride_a)`` are exactly the
    integers congruent to ``off_b - off_a`` modulo ``g`` (all integers when
    ``g == 1``; the single value when ``g == 0``).  The two byte ranges
    intersect iff some achievable ``t`` satisfies ``-width_b < t < width_a``.
    """
    if width_a <= 0 or width_b <= 0:
        return False
    g = gcd(stride_a, stride_b)
    diff = off_b - off_a
    if g == 0:
        return -width_b < diff < width_a
    # number of integers in the open interval (-width_b, width_a)
    span = width_a + width_b - 1
    if span >= g:
        return True
    r = diff % g  # canonical residue in [0, g)
    # candidates congruent to diff: r (covers 0 <= t < width_a) and r - g
    # (covers -width_b < t < 0)
    return r < width_a or r - g > -width_b


def merge_locations(locs: Iterable[LocationSet]) -> list[LocationSet]:
    """Collapse redundant members: drop sets subsumed by a whole-block set."""
    locs = list(locs)
    whole = {ls.base for ls in locs if ls.is_whole_block}
    out: list[LocationSet] = []
    seen: set[tuple[int, int, int]] = set()
    for ls in locs:
        if ls.base in whole and not ls.is_whole_block:
            continue
        key = (ls.base.uid, ls.offset, ls.stride)
        if key in seen:
            continue
        seen.add(key)
        out.append(ls)
    return out


def locations_overlap(a: LocationSet, b: LocationSet, width_a: int = 1, width_b: int = 1) -> bool:
    """Module-level alias of :meth:`LocationSet.overlaps`."""
    return a.overlaps(b, width_a, width_b)
