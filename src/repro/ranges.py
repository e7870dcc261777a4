"""Byte-range overlap on strided offsets.

A leaf with no imports, shared by location sets
(:mod:`repro.memory.locset`) and the query engine's alias witnesses
(:mod:`repro.query.engine`), so the engine can decide overlaps without
loading the memory model.
"""

from __future__ import annotations

from math import gcd

__all__ = ["WORD_SIZE", "ranges_overlap_mod"]

#: The machine word size (ILP32); the paper's assignment evaluation
#: distinguishes "one word or less" from aggregate (multi-word)
#: assignments.
WORD_SIZE = 4


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
