"""Unit tests for inequality ordering heuristics."""

import pytest

from repro.core import (
    CopyInequality,
    EdgeInequality,
    FORWARD,
    BACKWARD,
    order_inequalities,
)
from repro.bitvec import build_label_matrices


@pytest.fixture
def matrices():
    ring = [(i, "dense", i + 1) for i in range(9)]
    ring += [(i + 1, "dense", i) for i in range(9)]
    return build_label_matrices(10, ring + [(0, "sparse", 1)])


@pytest.fixture
def inequalities():
    return [
        EdgeInequality(target=1, source=0, label="dense", matrix=FORWARD),
        EdgeInequality(target=0, source=1, label="dense", matrix=BACKWARD),
        EdgeInequality(target=3, source=2, label="sparse", matrix=FORWARD),
        CopyInequality(target=4, source=0),
    ]


class TestOrderings:
    def test_sparsity_prefers_empty_columns(self, inequalities, matrices):
        order = order_inequalities(inequalities, matrices, 10, "sparsity")
        # Copy first, then the sparse-label inequality.
        assert isinstance(inequalities[order[0]], CopyInequality)
        first_edge = inequalities[order[1]]
        assert first_edge.label == "sparse"

    def test_frequency_prefers_rare_labels(self, inequalities, matrices):
        order = order_inequalities(inequalities, matrices, 10, "frequency")
        assert isinstance(inequalities[order[0]], CopyInequality)
        assert inequalities[order[1]].label == "sparse"

    def test_fifo_keeps_construction_order(self, inequalities, matrices):
        order = order_inequalities(inequalities, matrices, 10, "fifo")
        edge_positions = [i for i in order if isinstance(inequalities[i], EdgeInequality)]
        assert edge_positions == [0, 1, 2]

    def test_random_is_seeded(self, inequalities, matrices):
        a = order_inequalities(inequalities, matrices, 10, "random", seed=1)
        b = order_inequalities(inequalities, matrices, 10, "random", seed=1)
        assert a == b

    def test_all_orderings_are_permutations(self, inequalities, matrices):
        for ordering in ("fifo", "sparsity", "frequency", "random"):
            order = order_inequalities(inequalities, matrices, 10, ordering)
            assert sorted(order) == list(range(len(inequalities)))

    def test_copies_always_first(self, inequalities, matrices):
        for ordering in ("fifo", "sparsity", "frequency", "random"):
            order = order_inequalities(inequalities, matrices, 10, ordering)
            assert isinstance(inequalities[order[0]], CopyInequality)

    def test_missing_label_treated_as_sparse(self, matrices):
        ineqs = [
            EdgeInequality(target=1, source=0, label="dense", matrix=FORWARD),
            EdgeInequality(target=3, source=2, label="ghost", matrix=FORWARD),
        ]
        order = order_inequalities(ineqs, matrices, 10, "sparsity")
        assert ineqs[order[0]].label == "ghost"

    def test_unknown_ordering_rejected(self, inequalities, matrices):
        with pytest.raises(ValueError):
            order_inequalities(inequalities, matrices, 10, "bogus")
