"""Property-based tests: the Bitset kernel behaves like Python sets."""

import numpy as np
from hypothesis import given, strategies as st

from repro.bitvec import Bitset

WIDTH = 150

subsets = st.sets(st.integers(min_value=0, max_value=WIDTH - 1))


def bs(members):
    return Bitset.from_indices(WIDTH, members)


@given(subsets, subsets)
def test_and_matches_set_intersection(a, b):
    assert (bs(a) & bs(b)).to_set() == a & b


@given(subsets, subsets)
def test_or_matches_set_union(a, b):
    assert (bs(a) | bs(b)).to_set() == a | b


@given(subsets, subsets)
def test_xor_matches_symmetric_difference(a, b):
    assert (bs(a) ^ bs(b)).to_set() == a ^ b


@given(subsets, subsets)
def test_sub_matches_difference(a, b):
    assert (bs(a) - bs(b)).to_set() == a - b


@given(subsets)
def test_invert_matches_complement(a):
    assert (~bs(a)).to_set() == set(range(WIDTH)) - a


@given(subsets, subsets)
def test_issubset_matches(a, b):
    assert bs(a).issubset(bs(b)) == a.issubset(b)


@given(subsets, subsets)
def test_intersects_matches(a, b):
    assert bs(a).intersects(bs(b)) == bool(a & b)


@given(subsets)
def test_count_matches_len(a):
    assert bs(a).count() == len(a)


@given(subsets)
def test_iteration_sorted_roundtrip(a):
    assert list(bs(a)) == sorted(a)


@given(subsets)
def test_first_matches_min(a):
    expected = min(a) if a else None
    assert bs(a).first() == expected


@given(subsets, subsets)
def test_intersection_update_shrink_flag(a, b):
    x = bs(a)
    shrank = x.intersection_update(bs(b))
    assert x.to_set() == a & b
    assert shrank == (len(a & b) < len(a))


@given(st.integers(min_value=0, max_value=300))
def test_ones_count_any_width(width):
    assert Bitset.ones(width).count() == width


@given(subsets, st.lists(st.integers(min_value=0, max_value=WIDTH - 1)))
def test_bits_at_matches_membership(a, probes):
    indices = np.array(probes, dtype=np.int64)
    assert bs(a).bits_at(indices).tolist() == [p in a for p in probes]
