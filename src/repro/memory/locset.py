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

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

from .blocks import MemoryBlock

__all__ = [
    "WORD_SIZE",
    "LocationSet",
    "intern_locset",
    "locations_overlap",
    "ranges_overlap_mod",
    "locsets_interned",
]

#: The machine word size (ILP32); the paper's assignment evaluation
#: distinguishes "one word or less" from aggregate (multi-word)
#: assignments.  Defined here, beside the overlap tests it sizes, so the
#: query engine can use it without loading the C type model.
WORD_SIZE = 4

#: monotone count of canonical location-set instances created by
#: :func:`intern_locset` in this process; the snapshot layer's memory
#: profile reads per-run deltas of it (the per-block intern tables die
#: with their blocks, so a live sum would need a global block registry)
_locsets_interned = 0


def locsets_interned() -> int:
    """Monotone count of interned (canonical) location sets this process."""
    return _locsets_interned


@dataclass(frozen=True)
class LocationSet:
    """A set of byte positions within one block of memory.

    Instances are immutable and hashable; the hash is computed once at
    construction (location sets are the keys of every points-to map and
    every lookup-cache probe, so hashing is on the engine's hottest path)
    and equality takes an identity fast path — :func:`intern_locset`
    hash-conses instances per block so that equal sets usually *are* the
    same object.
    """

    base: MemoryBlock
    offset: int = 0
    stride: int = 0

    def __post_init__(self) -> None:
        if self.stride < 0:
            raise ValueError(f"negative stride {self.stride}")
        if self.stride:
            # keep the invariant offset ∈ [0, stride)
            object.__setattr__(self, "offset", self.offset % self.stride)
        object.__setattr__(
            self, "_hash", hash((self.base.uid, self.offset, self.stride))
        )
        # set to True on the canonical instance by :func:`intern_locset`;
        # lets normalize_loc() skip the intern-table probe entirely
        object.__setattr__(self, "_interned", False)

    # explicit __eq__/__hash__ (dataclass keeps user definitions): identity
    # first, then field comparison with the base compared by identity
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not LocationSet:
            return NotImplemented
        return (
            self.base is other.base
            and self.offset == other.offset
            and self.stride == other.stride
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

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


def intern_locset(loc: LocationSet) -> LocationSet:
    """Hash-cons ``loc``: one canonical instance per ``(base, offset,
    stride)``, stored on the base block so the table's lifetime matches the
    block's.

    Interned location sets make dict probes and frozenset membership tests
    hit the ``__eq__`` identity fast path, which matters because location
    sets key every points-to map and every sparse lookup-cache entry.
    """
    if loc._interned:  # type: ignore[attr-defined]
        return loc
    cache = loc.base._locset_interns
    key = (loc.offset, loc.stride)
    hit = cache.get(key)
    if hit is None:
        global _locsets_interned
        _locsets_interned += 1
        object.__setattr__(loc, "_interned", True)
        cache[key] = loc
        return loc
    return hit


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
