"""Unit tests for the small random/structured graph generators."""

import pytest

from repro.errors import WorkloadError
from repro.graph import (
    chain_pattern,
    cycle_pattern,
    figure4_database,
    figure4_pattern,
    figure5_database,
    grid_database,
    planted_pattern_database,
    random_database,
    random_graph,
    random_pattern,
    star_pattern,
)


class TestRandomGraphs:
    def test_deterministic_by_seed(self):
        a = random_graph(10, 20, seed=1)
        b = random_graph(10, 20, seed=1)
        assert set(a.edges()) == set(b.edges())

    def test_different_seed_differs(self):
        a = random_graph(30, 60, seed=1)
        b = random_graph(30, 60, seed=2)
        assert set(a.edges()) != set(b.edges())

    def test_node_count(self):
        g = random_graph(10, 5, seed=0)
        assert g.n_nodes == 10

    def test_labels_restricted(self):
        g = random_graph(10, 30, labels=("only",), seed=0)
        assert g.labels <= {"only"}

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            random_graph(0, 5)
        with pytest.raises(WorkloadError):
            random_graph(5, 5, labels=())

    def test_random_database_has_no_literals(self):
        db = random_database(10, 20, seed=0)
        assert db.n_literals == 0


class TestRandomPattern:
    def test_connected_backbone(self):
        # With connected=True the pattern is weakly connected.
        import networkx as nx
        pattern = random_pattern(6, 8, seed=4)
        g = nx.Graph()
        g.add_nodes_from(pattern.nodes())
        for s, _l, d in pattern.edges():
            g.add_edge(s, d)
        assert nx.is_connected(g)

    def test_invalid(self):
        with pytest.raises(WorkloadError):
            random_pattern(0, 1)


class TestStructured:
    def test_chain(self):
        p = chain_pattern(3, "l")
        assert p.n_nodes == 4
        assert p.has_edge("v0", "l", "v1")
        assert p.has_edge("v2", "l", "v3")

    def test_cycle(self):
        p = cycle_pattern(3, "l")
        assert p.n_edges == 3
        assert p.has_edge("v2", "l", "v0")
        with pytest.raises(WorkloadError):
            cycle_pattern(0)

    def test_star(self):
        p = star_pattern(3, labels=["a", "b"])
        assert len(p.out_edges("center")) == 3
        assert p.has_edge("center", "a", "leaf0")
        assert p.has_edge("center", "b", "leaf1")

    def test_grid(self):
        db = grid_database(3, 2)
        assert db.n_nodes == 6
        assert db.has_edge((0, 0), "right", (1, 0))
        assert db.has_edge((0, 0), "down", (0, 1))

    def test_planted_pattern_contains_copies(self):
        pattern = chain_pattern(2, "l")
        db = planted_pattern_database(pattern, 3, 5, 10, seed=0)
        for c in range(3):
            assert db.has_edge(f"c{c}:v0", "l", f"c{c}:v1")


class TestPaperFigures:
    def test_figure4(self):
        p = figure4_pattern()
        assert set(p.edges()) == {("v", "knows", "w"), ("w", "knows", "v")}
        k = figure4_database()
        assert k.n_nodes == 4
        assert k.has_edge("p3", "knows", "p4")
        # p1 and p4 have no direct link.
        assert not k.has_edge("p1", "knows", "p4")
        assert not k.has_edge("p4", "knows", "p1")

    def test_figure5(self):
        db = figure5_database()
        assert db.has_edge(1, "a", 2)
        assert db.has_edge(1, "a", 3)
        assert db.has_edge(4, "b", 2)
        assert db.has_edge(4, "c", 5)
