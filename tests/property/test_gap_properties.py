"""Property-based tests for gap-length encoding and the bit-matrix
product strategies."""

from hypothesis import given, settings, strategies as st

from repro.bitvec import Bitset, LabelMatrixPair, build_label_matrices
from repro.bitvec.gap import decode, encode

WIDTH = 180

subsets = st.sets(st.integers(min_value=0, max_value=WIDTH - 1))


@given(subsets)
def test_gap_roundtrip(members):
    bs = Bitset.from_indices(WIDTH, members)
    assert decode(encode(bs), WIDTH) == bs


@given(subsets)
def test_gap_runs_sum_to_width(members):
    bs = Bitset.from_indices(WIDTH, members)
    runs = encode(bs)
    assert int(runs.sum()) == WIDTH


@given(subsets)
def test_gap_runs_alternate_nonzero(members):
    bs = Bitset.from_indices(WIDTH, members)
    runs = encode(bs).tolist()
    # Only the leading zero-run may be empty.
    assert all(r > 0 for r in runs[1:])


@st.composite
def matrices_and_vectors(draw, n=40):
    n_edges = draw(st.integers(min_value=0, max_value=60))
    edges = [
        (draw(st.integers(0, n - 1)), "l", draw(st.integers(0, n - 1)))
        for _ in range(n_edges)
    ]
    pair = build_label_matrices(n, edges).get("l", LabelMatrixPair(n))
    vec = Bitset.from_indices(
        n, draw(st.sets(st.integers(0, n - 1)))
    )
    mask = Bitset.from_indices(
        n, draw(st.sets(st.integers(0, n - 1)))
    )
    return pair, vec, mask


@given(matrices_and_vectors(), st.sampled_from(["forward", "backward"]))
@settings(max_examples=60, deadline=None)
def test_product_strategies_agree(setup, direction):
    pair, vec, mask = setup
    row = pair.product(vec, direction, mask=mask, strategy="row")
    col = pair.product(vec, direction, mask=mask, strategy="column")
    auto = pair.product(vec, direction, mask=mask, strategy="auto")
    assert row == col == auto


@given(matrices_and_vectors())
@settings(max_examples=60, deadline=None)
def test_product_matches_set_semantics(setup):
    pair, vec, mask = setup
    result = pair.product(vec, "forward", mask=mask, strategy="row")
    expected = set()
    for i in vec:
        row = pair.forward.row(int(i))
        if row is not None:
            expected |= row.to_set()
    expected &= mask.to_set()
    assert result.to_set() == expected
