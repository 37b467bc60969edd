"""Unit tests for adjacency bit-matrices and the x_b product."""

import numpy as np
import pytest

from repro.bitvec import (
    AdjacencyMatrix,
    Bitset,
    LabelMatrixPair,
    build_label_matrices,
)
from repro.errors import DimensionMismatchError


def _pair(n, edges):
    """The CSR pair of one label with the given ``(s, d)`` edges."""
    return build_label_matrices(n, [(s, "l", d) for s, d in edges])["l"]


def _matrix(n, edges):
    rows, columns = (np.array(c, dtype=np.int64) for c in zip(*sorted(edges)))
    return AdjacencyMatrix.from_sorted_columns(n, rows, columns)


@pytest.fixture
def born_in_pair():
    """The born_in matrices of Fig. 2(a): nodes indexed
    0=place, 1=director1, 2=director2, 3=coworker, 4=movie."""
    return _pair(5, [(1, 0), (2, 0)])


class TestAdjacencyMatrix:
    def test_add_and_row(self):
        m = _matrix(4, [(0, 1), (0, 2)])
        assert m.row(0).to_set() == {1, 2}
        assert m.row(3) is None

    def test_empty_matrix_is_an_empty_csr(self):
        m = AdjacencyMatrix(4)
        assert m.n_edges == 0
        assert m.row(0) is None
        assert not m.has_edge(0, 1)
        assert m.edge_columns()[0].size == 0
        assert m.product_rowwise(Bitset.ones(4)).is_empty()
        m.pack()
        assert m._packed.shape == (0, 1)

    def test_duplicate_edges_counted_once(self):
        pair = _pair(4, [(0, 1), (0, 1)])
        assert pair.forward.n_edges == pair.backward.n_edges == 1

    def test_summary_tracks_nonempty_rows(self):
        m = _matrix(4, [(0, 1), (2, 3)])
        assert m.summary.to_set() == {0, 2}

    def test_successors(self):
        m = _matrix(4, [(1, 2)])
        assert set(m.successors(1)) == {2}
        assert set(m.successors(0)) == set()

    def test_has_edge(self):
        m = _matrix(4, [(1, 2)])
        assert m.has_edge(1, 2)
        assert not m.has_edge(2, 1)

    def test_density(self):
        m = _matrix(2, [(0, 1)])
        assert m.density() == 0.25
        assert AdjacencyMatrix(0).density() == 0.0

    def test_product_rowwise_paper_example(self, born_in_pair):
        # chi = (1,1,1,1,1); chi x F_born_in = (1,0,0,0,0) = r1.
        chi = Bitset.ones(5)
        r1 = born_in_pair.forward.product_rowwise(chi)
        assert r1.to_set() == {0}

    def test_product_rowwise_backward_paper_example(self, born_in_pair):
        # chi x B_born_in = (0,1,1,0,0) = r2.
        chi = Bitset.ones(5)
        r2 = born_in_pair.backward.product_rowwise(chi)
        assert r2.to_set() == {1, 2}

    def test_product_empty_vector(self, born_in_pair):
        out = born_in_pair.forward.product_rowwise(Bitset.zeros(5))
        assert out.is_empty()

    def test_product_dimension_mismatch(self, born_in_pair):
        with pytest.raises(DimensionMismatchError):
            born_in_pair.forward.product_rowwise(Bitset.zeros(6))


class TestLabelMatrixPair:
    def test_backward_is_transpose(self):
        pair = _pair(3, [(0, 1), (0, 2)])
        assert pair.forward.row(0).to_set() == {1, 2}
        assert pair.backward.row(1).to_set() == {0}
        assert pair.backward.row(2).to_set() == {0}
        assert pair.n_edges == 2

    def test_product_forward_vs_backward(self):
        pair = _pair(3, [(0, 1)])
        vec = Bitset.from_indices(3, [0])
        assert pair.product(vec, "forward").to_set() == {1}
        vec2 = Bitset.from_indices(3, [1])
        assert pair.product(vec2, "backward").to_set() == {0}

    def test_product_with_mask(self):
        pair = _pair(4, [(0, 1), (0, 2)])
        vec = Bitset.from_indices(4, [0])
        mask = Bitset.from_indices(4, [2, 3])
        assert pair.product(vec, "forward", mask=mask).to_set() == {2}

    def test_row_and_column_strategies_agree(self):
        pair = _pair(6, [(0, 1), (0, 2), (3, 2), (4, 5), (5, 0)])
        vec = Bitset.from_indices(6, [0, 3, 5])
        mask = Bitset.from_indices(6, [0, 1, 2, 5])
        row = pair.product(vec, "forward", mask=mask, strategy="row")
        col = pair.product(vec, "forward", mask=mask, strategy="column")
        auto = pair.product(vec, "forward", mask=mask, strategy="auto")
        assert row == col == auto
        row_b = pair.product(vec, "backward", mask=mask, strategy="row")
        col_b = pair.product(vec, "backward", mask=mask, strategy="column")
        assert row_b == col_b

    def test_column_requires_mask(self):
        pair = _pair(3, [(0, 1)])
        with pytest.raises(ValueError):
            pair.product(Bitset.ones(3), "forward", strategy="column")

    def test_unknown_direction_and_strategy(self):
        pair = LabelMatrixPair(3)
        with pytest.raises(ValueError):
            pair.product(Bitset.ones(3), "sideways")
        with pytest.raises(ValueError):
            pair.product(Bitset.ones(3), "forward", strategy="diagonal")


class TestBuildLabelMatrices:
    def test_builds_per_label(self):
        matrices = build_label_matrices(
            3, [(0, "a", 1), (1, "b", 2), (0, "a", 2)]
        )
        assert set(matrices) == {"a", "b"}
        assert matrices["a"].n_edges == 2
        assert matrices["b"].n_edges == 1

    def test_empty(self):
        assert build_label_matrices(3, []) == {}

    def test_labels_in_first_seen_order(self):
        matrices = build_label_matrices(
            3, [(0, "b", 1), (1, "a", 2), (2, "b", 0), (0, "c", 0)]
        )
        assert list(matrices) == ["b", "a", "c"]
