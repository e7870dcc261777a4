"""Tests for location sets (§3.1) — including the Table 1 semantics."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.blocks import LocalBlock, HeapBlock
from repro.memory.locset import (
    LocationSet,
    locsets_interned,
    merge_locations,
    ranges_overlap_mod,
)


def block(name="b"):
    return LocalBlock(name, "p")


class TestNormalization:
    def test_plain_scalar(self):
        ls = LocationSet(block(), 0, 0)
        assert (ls.offset, ls.stride) == (0, 0)

    def test_offset_mod_stride(self):
        # array nested in struct: offset reduced modulo stride (§3.1)
        ls = LocationSet(block(), 6, 4)
        assert (ls.offset, ls.stride) == (2, 4)

    def test_offset_equal_stride_wraps(self):
        ls = LocationSet(block(), 4, 4)
        assert ls.offset == 0

    def test_negative_offset_with_stride_wraps(self):
        ls = LocationSet(block(), -1, 4)
        assert ls.offset == 3

    def test_negative_offset_no_stride_kept(self):
        # Figure 7: pointers before an extended parameter
        ls = LocationSet(block(), -8, 0)
        assert ls.offset == -8

    def test_negative_stride_rejected(self):
        with pytest.raises(ValueError):
            LocationSet(block(), 0, -4)


class TestDerivedSets:
    def test_with_offset(self):
        b = block()
        assert LocationSet(b, 4, 0).with_offset(4).offset == 8

    def test_with_offset_strided_wraps(self):
        b = block()
        assert LocationSet(b, 0, 8).with_offset(12).offset == 4

    def test_with_stride_gcd(self):
        b = block()
        ls = LocationSet(b, 0, 8).with_stride(12)
        assert ls.stride == 4

    def test_with_stride_zero_is_identity(self):
        b = block()
        ls = LocationSet(b, 4, 8)
        assert ls.with_stride(0) == ls

    def test_blurred_covers_block(self):
        ls = LocationSet(block(), 12, 8).blurred()
        assert ls.offset == 0 and ls.stride == 1
        assert ls.is_whole_block


class TestContains:
    def test_scalar_contains_only_offset(self):
        ls = LocationSet(block(), 8, 0)
        assert ls.contains(8)
        assert not ls.contains(4)

    def test_strided_positions(self):
        ls = LocationSet(block(), 2, 4)
        assert ls.contains(2) and ls.contains(6) and ls.contains(10)
        assert not ls.contains(4)

    def test_positions_enumeration(self):
        ls = LocationSet(block(), 1, 4)
        assert list(ls.positions(3)) == [1, 5, 9]


class TestUniqueness:
    def test_local_scalar_unique(self):
        assert LocationSet(block(), 0, 0).is_unique

    def test_strided_never_unique(self):
        assert not LocationSet(block(), 0, 4).is_unique

    def test_heap_never_unique(self):
        assert not LocationSet(HeapBlock("site"), 0, 0).is_unique


class TestOverlap:
    def test_same_scalar(self):
        b = block()
        assert LocationSet(b, 0, 0).overlaps(LocationSet(b, 0, 0))

    def test_distinct_scalars(self):
        b = block()
        assert not LocationSet(b, 0, 0).overlaps(LocationSet(b, 4, 0))

    def test_different_blocks_never_overlap(self):
        assert not LocationSet(block("a"), 0, 0).overlaps(LocationSet(block("b"), 0, 0))

    def test_word_read_sees_interior_byte(self):
        b = block()
        # 4-byte access at 0 touches the byte at 2
        assert LocationSet(b, 0, 0).overlaps(LocationSet(b, 2, 0), width=4)
        assert not LocationSet(b, 0, 0).overlaps(LocationSet(b, 2, 0), width=2)

    def test_strided_vs_scalar_hit(self):
        b = block()
        arr = LocationSet(b, 0, 8)
        assert arr.overlaps(LocationSet(b, 16, 0))
        assert not arr.overlaps(LocationSet(b, 4, 0))

    def test_strided_vs_strided_gcd(self):
        b = block()
        a = LocationSet(b, 0, 6)
        c = LocationSet(b, 3, 6)
        assert not a.overlaps(c)
        assert a.overlaps(LocationSet(b, 0, 4))  # gcd 2, both even offsets

    def test_whole_block_overlaps_everything(self):
        b = block()
        whole = LocationSet(b, 0, 1)
        assert whole.overlaps(LocationSet(b, 1234, 0))
        assert whole.overlaps(LocationSet(b, 3, 8))

    def test_width_spans_stride_gap(self):
        b = block()
        a = LocationSet(b, 0, 8)
        c = LocationSet(b, 4, 8)
        assert not a.overlaps(c)
        assert a.overlaps(c, width=5)  # 5-byte access reaches offset 4

    def test_negative_offset_overlap(self):
        b = block()
        assert LocationSet(b, -8, 0).overlaps(LocationSet(b, -8, 0))
        assert not LocationSet(b, -8, 0).overlaps(LocationSet(b, 0, 0))


class TestRangesOverlapMod:
    def test_both_fixed(self):
        assert ranges_overlap_mod(0, 0, 4, 2, 0, 1)
        assert not ranges_overlap_mod(0, 0, 2, 2, 0, 1)

    def test_zero_width_never(self):
        assert not ranges_overlap_mod(0, 0, 0, 0, 0, 4)

    def test_symmetry(self):
        for args in [(0, 8, 4, 4, 0, 4), (1, 6, 2, 3, 4, 2), (0, 0, 4, 2, 8, 2)]:
            o1, s1, w1, o2, s2, w2 = args
            assert ranges_overlap_mod(o1, s1, w1, o2, s2, w2) == ranges_overlap_mod(
                o2, s2, w2, o1, s1, w1
            )

    @given(
        o1=st.integers(-64, 64),
        s1=st.sampled_from([0, 1, 2, 4, 8, 12]),
        w1=st.integers(1, 16),
        o2=st.integers(-64, 64),
        s2=st.sampled_from([0, 1, 2, 4, 8, 12]),
        w2=st.integers(1, 16),
    )
    @settings(max_examples=300)
    def test_matches_bruteforce(self, o1, s1, w1, o2, s2, w2):
        """The modular overlap test agrees with explicit enumeration."""

        def positions(o, s):
            if s == 0:
                return [o]
            # wide enough that every position within the offset/width
            # envelope (|o| <= 64, w <= 16) is enumerated for any stride
            return [o + i * s for i in range(-200, 201)]

        brute = any(
            p1 < p2 + w2 and p2 < p1 + w1
            for p1 in positions(o1, s1)
            for p2 in positions(o2, s2)
        )
        assert ranges_overlap_mod(o1, s1, w1, o2, s2, w2) == brute


class TestMergeLocations:
    def test_dedup(self):
        b = block()
        out = merge_locations([LocationSet(b, 0, 0), LocationSet(b, 0, 0)])
        assert len(out) == 1

    def test_whole_block_subsumes(self):
        b = block()
        out = merge_locations([LocationSet(b, 0, 1), LocationSet(b, 8, 0)])
        assert out == [LocationSet(b, 0, 1)]

    def test_distinct_blocks_kept(self):
        out = merge_locations([LocationSet(block("a"), 0, 0), LocationSet(block("b"), 0, 0)])
        assert len(out) == 2


class TestHashing:
    def test_equal_sets_hash_equal(self):
        b = block()
        assert hash(LocationSet(b, 4, 0)) == hash(LocationSet(b, 4, 0))

    def test_usable_in_sets(self):
        b = block()
        s = {LocationSet(b, 0, 0), LocationSet(b, 0, 0), LocationSet(b, 4, 0)}
        assert len(s) == 2

    def test_str_format(self):
        b = block("buf")
        assert str(LocationSet(b, 4, 0)) == "(buf, 4)"
        assert str(LocationSet(b, 0, 8)) == "(buf, 0, 8)"


class TestCanonicalInstances:
    """Construction hash-conses: one instance per block and normalized
    ``(offset, stride)``, so equality is identity."""

    def test_equal_triples_give_the_same_object(self):
        b = block()
        assert LocationSet(b, 4, 0) is LocationSet(b, 4, 0)
        assert LocationSet(b) is LocationSet(b, 0, 0)
        assert LocationSet(b, 4, 0) is not LocationSet(b, 8, 0)
        assert LocationSet(b, 4, 0) is not LocationSet(block(), 4, 0)

    def test_stride_normalized_before_lookup(self):
        b = block()
        assert LocationSet(b, 12, 8) is LocationSet(b, 4, 8)
        assert LocationSet(b, -4, 8) is LocationSet(b, 4, 8)
        assert LocationSet(b, 4, 8).with_offset(8) is LocationSet(b, 4, 8)

    def test_hash_is_deterministic(self):
        b = block()
        assert hash(LocationSet(b, 12, 8)) == hash((b.uid, 4, 8))

    def test_negative_stride_raises(self):
        b = block()
        with pytest.raises(ValueError):
            LocationSet(b, 0, -8)
        assert (0, -8) not in b._locset_interns

    def test_setattr_raises(self):
        ls = LocationSet(block(), 4, 0)
        with pytest.raises(AttributeError):
            ls.offset = 8
        with pytest.raises(AttributeError):
            ls.extra = 1
        with pytest.raises(AttributeError):
            del ls.stride
        assert ls.offset == 4

    def test_pickle_round_trips_to_the_canonical_instance(self):
        b = block()
        ls = LocationSet(b, 4, 8)
        got, got_base, twin = pickle.loads(pickle.dumps([ls, b, LocationSet(b, 12, 8)]))
        assert got.base is got_base
        assert got is twin
        assert got is LocationSet(got_base, 4, 8)
        assert hash(got) == hash(ls)
        # the copy's block has a table of its own
        assert LocationSet(got_base, 0, 0) is not LocationSet(b, 0, 0)

    def test_copy_round_trips_to_the_canonical_instance(self):
        b = block()
        ls = LocationSet(b, 4, 8)
        assert copy.copy(ls) is ls
        # a deep copy copies the block too, and lands in the copy's table
        deep = copy.deepcopy(ls)
        assert deep.base is not b and deep is LocationSet(deep.base, 4, 8)
        ls2, b2 = copy.deepcopy([ls, b])
        assert b2 is not b
        assert ls2 is LocationSet(b2, 4, 8)

    def test_locsets_interned_counts_canonical_instances(self):
        b = block()
        before = locsets_interned()
        LocationSet(b, 0, 0)
        LocationSet(b, 0, 0)
        LocationSet(b, 12, 8)
        LocationSet(b, 4, 8)
        assert locsets_interned() == before + 2
        assert len(b._locset_interns) == 2
