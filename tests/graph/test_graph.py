"""Unit tests for the edge-labeled graph model."""

import os
import subprocess
import sys

import pytest

from repro.errors import GraphError
from repro.graph import Graph


@pytest.fixture
def triangle():
    g = Graph()
    g.add_edge("a", "x", "b")
    g.add_edge("b", "y", "c")
    g.add_edge("c", "z", "a")
    return g


class TestConstruction:
    def test_add_node_idempotent(self):
        g = Graph()
        assert g.add_node("n") == g.add_node("n") == 0
        assert g.n_nodes == 1

    def test_add_edge_creates_nodes(self):
        g = Graph()
        g.add_edge("a", "l", "b")
        assert g.n_nodes == 2
        assert g.n_edges == 1

    def test_duplicate_edge_ignored(self):
        g = Graph()
        g.add_edge("a", "l", "b")
        g.add_edge("a", "l", "b")
        assert g.n_edges == 1

    def test_self_loop(self):
        g = Graph()
        g.add_edge("a", "l", "a")
        assert g.n_nodes == 1
        assert g.has_edge("a", "l", "a")

    def test_parallel_labels(self):
        g = Graph()
        g.add_edge("a", "l1", "b")
        g.add_edge("a", "l2", "b")
        assert g.n_edges == 2
        assert g.labels == {"l1", "l2"}

    def test_empty_label_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge("a", "", "b")
        with pytest.raises(GraphError):
            g.add_edge("a", None, "b")

    def test_non_string_label_allowed(self):
        # IRIs and other hashables are legal labels.
        g = Graph()
        g.add_edge("a", ("iri", "p"), "b")
        assert g.n_edges == 1

    def test_from_edges(self, triangle):
        clone = Graph.from_edges(triangle.edges())
        assert set(clone.edges()) == set(triangle.edges())


class TestAccessors:
    def test_node_index_roundtrip(self, triangle):
        for node in triangle.nodes():
            assert triangle.node_name(triangle.node_index(node)) == node

    def test_unknown_node_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.node_index("zzz")

    def test_has_node(self, triangle):
        assert triangle.has_node("a")
        assert not triangle.has_node("zzz")

    def test_has_edge(self, triangle):
        assert triangle.has_edge("a", "x", "b")
        assert not triangle.has_edge("b", "x", "a")
        assert not triangle.has_edge("missing", "x", "b")

    def test_edges_iteration(self, triangle):
        assert set(triangle.edges()) == {
            ("a", "x", "b"), ("b", "y", "c"), ("c", "z", "a"),
        }

    def test_indexed_edges_consistent(self, triangle):
        by_name = {
            (triangle.node_name(s), label, triangle.node_name(d))
            for s, label, d in triangle.indexed_edges()
        }
        assert by_name == set(triangle.edges())


class TestAdjacency:
    def test_successors_and_predecessors(self, triangle):
        assert triangle.successors("a", "x") == {"b"}
        assert triangle.successors("a", "y") == set()
        assert triangle.predecessors("b", "x") == {"a"}
        assert triangle.predecessors("a", "z") == {"c"}

    def test_out_in_edges(self, triangle):
        assert triangle.out_edges("a") == {("x", "b")}
        assert triangle.in_edges("a") == {("z", "c")}

    def test_degrees(self, triangle):
        assert len(triangle.out_edges("a")) == 1
        assert len(triangle.in_edges("a")) == 1

    def test_multi_successors(self):
        g = Graph()
        g.add_edge("hub", "l", "s1")
        g.add_edge("hub", "l", "s2")
        assert g.successors("hub", "l") == {"s1", "s2"}

    def test_idx_adjacency(self, triangle):
        a = triangle.node_index("a")
        b = triangle.node_index("b")
        pair = triangle.label_matrix("x")
        assert pair.forward.successors(a).tolist() == [b]
        assert pair.backward.successors(b).tolist() == [a]
        assert pair.forward.successors(b).tolist() == []
        assert (a, "x", b) in set(triangle.indexed_edges())


class TestMatrices:
    def test_matrices_match_adjacency(self, triangle):
        matrices = triangle.matrices()
        assert set(matrices) == {"x", "y", "z"}
        a, b = triangle.node_index("a"), triangle.node_index("b")
        assert matrices["x"].forward.row(a).to_set() == {b}
        assert matrices["x"].backward.row(b).to_set() == {a}

    def test_matrices_cached_and_invalidated(self, ):
        g = Graph()
        g.add_edge("a", "l", "b")
        m1 = g.matrices()
        assert g.matrices() is m1
        g.add_edge("b", "l", "a")
        m2 = g.matrices()
        assert m2 is not m1
        assert m2["l"].n_edges == 2

    def test_label_matrix_missing(self, triangle):
        assert triangle.label_matrix("nope") is None

    def test_nodes_bitset(self, triangle):
        bs = triangle.nodes_bitset(["a", "c"])
        assert bs.to_set() == {
            triangle.node_index("a"), triangle.node_index("c"),
        }


class TestOrder:
    _SCRIPT = (
        "from repro.graph import Graph\n"
        "triples = [(f'n{i % 7}', f'label{(3 * i) % 11}', f'n{i % 5}')\n"
        "           for i in range(60)]\n"
        "g = Graph.from_edges(triples)\n"
        "print(list(g.matrices()))\n"
        "print(list(g.edges()))\n"
    )

    def _run(self, seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (*sys.path, env.get("PYTHONPATH", "")) if p
        )
        return subprocess.run(
            [sys.executable, "-c", self._SCRIPT], env=env,
            capture_output=True, text=True, check=True,
        ).stdout

    def test_order_does_not_depend_on_hash_seed(self):
        assert self._run(0) == self._run(7)

    def test_labels_in_first_seen_order(self):
        g = Graph.from_edges([("a", "q", "b"), ("b", "p", "a"),
                              ("a", "q", "c"), ("c", "r", "a")])
        assert list(g.matrices()) == ["q", "p", "r"]
        assert list(g.edges()) == [
            ("a", "q", "b"), ("a", "q", "c"), ("b", "p", "a"),
            ("c", "r", "a"),
        ]


class TestSubgraph:
    def test_repr(self, triangle):
        assert "|V|=3" in repr(triangle)
