"""Unit tests for the Bitset kernel."""

import numpy as np
import pytest

from repro.bitvec import Bitset
from repro.errors import DimensionMismatchError


class TestConstruction:
    def test_zeros_is_empty(self):
        bs = Bitset.zeros(100)
        assert bs.count() == 0
        assert bs.is_empty()
        assert not bs.any()

    def test_ones_is_full(self):
        bs = Bitset.ones(100)
        assert bs.count() == 100
        assert bs.any()

    def test_ones_masks_tail(self):
        # 65 bits: second word must only carry one valid bit.
        bs = Bitset.ones(65)
        assert bs.count() == 65
        assert int(bs.words[1]) == 1

    def test_ones_exact_word_boundary(self):
        bs = Bitset.ones(128)
        assert bs.count() == 128

    def test_zero_width(self):
        bs = Bitset.zeros(0)
        assert bs.count() == 0
        assert list(bs) == []

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            Bitset(-1)

    def test_from_indices(self):
        bs = Bitset.from_indices(10, [1, 3, 7])
        assert bs.to_set() == {1, 3, 7}

    def test_from_indices_empty(self):
        bs = Bitset.from_indices(10, [])
        assert bs.is_empty()

    def test_from_indices_duplicates(self):
        bs = Bitset.from_indices(10, [2, 2, 2])
        assert bs.count() == 1

    def test_from_indices_out_of_range(self):
        with pytest.raises(IndexError):
            Bitset.from_indices(10, [10])
        with pytest.raises(IndexError):
            Bitset.from_indices(10, [-1])

    def test_singleton(self):
        bs = Bitset.singleton(70, 69)
        assert bs.to_set() == {69}

    def test_bad_words_shape_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Bitset(100, np.zeros(1, dtype=np.uint64))

    def test_bad_words_dtype_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Bitset(64, np.zeros(1, dtype=np.int64))

    def test_copy_is_independent(self):
        a = Bitset.from_indices(10, [1])
        b = a.copy()
        b.add(2)
        assert a.to_set() == {1}
        assert b.to_set() == {1, 2}

    @pytest.mark.parametrize("nbits", [70, 128, 200])
    def test_widened_adds_absent_elements(self, nbits):
        a = Bitset.from_indices(70, [0, 63, 69])
        a.count()
        b = a.widened(nbits)
        assert b.nbits == nbits
        assert b.to_set() == {0, 63, 69}
        assert b.count() == 3
        assert b == Bitset.from_indices(nbits, [0, 63, 69])
        b.discard(0)
        assert a.to_set() == {0, 63, 69}

    def test_widened_rejects_narrowing(self):
        with pytest.raises(ValueError):
            Bitset.zeros(70).widened(69)


class TestElementAccess:
    def test_add_and_contains(self):
        bs = Bitset.zeros(100)
        bs.add(64)
        assert 64 in bs
        assert 63 not in bs

    def test_discard(self):
        bs = Bitset.from_indices(100, [5, 64])
        bs.discard(64)
        assert bs.to_set() == {5}

    def test_discard_absent_is_noop(self):
        bs = Bitset.from_indices(10, [5])
        bs.discard(6)
        assert bs.to_set() == {5}

    def test_add_out_of_range(self):
        bs = Bitset.zeros(10)
        with pytest.raises(IndexError):
            bs.add(10)

    def test_contains_out_of_range_is_false(self):
        bs = Bitset.ones(10)
        assert 10 not in bs
        assert -1 not in bs


class TestQueries:
    def test_count_matches_len(self):
        bs = Bitset.from_indices(200, [0, 63, 64, 127, 199])
        assert bs.count() == len(bs) == 5

    def test_equality(self):
        a = Bitset.from_indices(100, [1, 2])
        b = Bitset.from_indices(100, [1, 2])
        c = Bitset.from_indices(100, [1, 3])
        assert a == b
        assert a != c

    def test_equality_different_width(self):
        assert Bitset.zeros(10) != Bitset.zeros(11)

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Bitset.zeros(8))

    def test_issubset(self):
        small = Bitset.from_indices(100, [1, 64])
        big = Bitset.from_indices(100, [1, 2, 64])
        assert small.issubset(big)
        assert small <= big
        assert not big.issubset(small)

    def test_issubset_reflexive(self):
        bs = Bitset.from_indices(10, [3])
        assert bs <= bs

    def test_intersects(self):
        a = Bitset.from_indices(100, [1, 64])
        b = Bitset.from_indices(100, [64])
        c = Bitset.from_indices(100, [2])
        assert a.intersects(b)
        assert not a.intersects(c)
        assert a.isdisjoint(c)

    def test_width_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            Bitset.zeros(10).issubset(Bitset.zeros(11))
        with pytest.raises(DimensionMismatchError):
            Bitset.zeros(10) & Bitset.zeros(11)

    def test_first(self):
        assert Bitset.from_indices(200, [65, 100]).first() == 65
        assert Bitset.zeros(10).first() is None
        assert Bitset.from_indices(10, [0]).first() == 0


class TestOperations:
    def test_and_or_xor_sub(self):
        a = Bitset.from_indices(100, [1, 2, 64])
        b = Bitset.from_indices(100, [2, 64, 65])
        assert (a & b).to_set() == {2, 64}
        assert (a | b).to_set() == {1, 2, 64, 65}
        assert (a ^ b).to_set() == {1, 65}
        assert (a - b).to_set() == {1}

    def test_inplace_ops(self):
        a = Bitset.from_indices(100, [1, 2])
        a |= Bitset.from_indices(100, [3])
        assert a.to_set() == {1, 2, 3}
        a &= Bitset.from_indices(100, [2, 3])
        assert a.to_set() == {2, 3}
        a -= Bitset.from_indices(100, [3])
        assert a.to_set() == {2}
        a ^= Bitset.from_indices(100, [2, 5])
        assert a.to_set() == {5}

    def test_invert_masks_tail(self):
        a = Bitset.from_indices(65, [0])
        inverted = ~a
        assert inverted.count() == 64
        assert 0 not in inverted
        assert 64 in inverted

    def test_double_invert_roundtrip(self):
        a = Bitset.from_indices(130, [0, 64, 129])
        assert ~~a == a

    def test_intersection_update_reports_shrink(self):
        a = Bitset.from_indices(100, [1, 2, 3])
        assert a.intersection_update(Bitset.from_indices(100, [2, 3])) is True
        assert a.intersection_update(Bitset.from_indices(100, [2, 3])) is False
        assert a.to_set() == {2, 3}

    def test_clear_and_fill(self):
        a = Bitset.from_indices(70, [1, 69])
        a.clear()
        assert a.is_empty()
        a.fill()
        assert a.count() == 70


class TestIteration:
    def test_iter_ones_sorted(self):
        bs = Bitset.from_indices(300, [299, 0, 64, 65])
        assert list(bs.iter_ones()) == [0, 64, 65, 299]

    def test_python_iteration(self):
        bs = Bitset.from_indices(10, [4, 8])
        assert list(bs) == [4, 8]

    def test_to_frozenset(self):
        bs = Bitset.from_indices(10, [4])
        assert bs.to_frozenset() == frozenset({4})

    def test_repr_small_and_large(self):
        assert "{1, 2}" in repr(Bitset.from_indices(10, [1, 2]))
        assert "|.|=20" in repr(Bitset.from_indices(100, range(20)))
