"""In-memory graphs keep their adjacency sparse.

``Graph.matrices()`` builds every label's forward and backward CSR
lists when the graph is loaded, and the query path (solve, prune,
join) never asks for a dense |V|-bit row block.  A dense block is
still derivable on request, bit-equal to rows built edge by edge.
Loading keeps no Python container per edge or per node beyond the
node dictionary.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import Database
from repro.bitvec import Bitset
from repro.graph import Graph, GraphDatabase
from repro.workloads import LUBM_QUERIES, generate_lubm


def _dense_build(graph):
    """label -> (forward rows, backward rows), each ``{node: Bitset}``
    built from Python sets, one edge at a time."""
    sets = {}
    for s, label, d in graph.indexed_edges():
        forward, backward = sets.setdefault(label, ({}, {}))
        forward.setdefault(s, set()).add(d)
        backward.setdefault(d, set()).add(s)
    return {
        label: tuple(
            {node: Bitset.from_indices(graph.n_nodes, members)
             for node, members in side.items()}
            for side in sides
        )
        for label, sides in sets.items()
    }


@pytest.fixture(scope="module")
def lubm():
    """A private LUBM(2): these tests inspect and then pack its pairs."""
    return generate_lubm(n_universities=2, seed=3, spiral_length=10)


def test_matrices_built_at_load_as_csr(lubm):
    """The adjacency is built when the graph is loaded, not by the
    first query: the session's queries reuse the very same lists."""
    g = Graph()
    g.add_edge("x", "l", "y")
    g.add_node("isolated")
    for pair in g.matrices().values():
        for matrix in (pair.forward, pair.backward):
            assert matrix._indptr is not None
            assert matrix._indices is not None
            assert not matrix.is_packed
    built = lubm.matrices()
    lists = {
        label: (pair.forward._indices, pair.backward._indices)
        for label, pair in built.items()
    }
    Database.in_memory(lubm).query(LUBM_QUERIES["L0"], mode="pruned").rows()
    assert lubm.matrices() is built
    for label, pair in built.items():
        assert pair.forward._indices is lists[label][0]
        assert pair.backward._indices is lists[label][1]


@pytest.fixture(scope="module")
def queried(lubm):
    database = Database.in_memory(lubm)
    for mode in ("pruned", "full"):
        for query in LUBM_QUERIES.values():
            database.query(query, mode=mode).rows()
    return lubm


def test_queries_leave_pairs_unpacked(queried):
    matrices = queried.matrices()
    assert matrices
    for label, pair in matrices.items():
        assert not pair.forward.is_packed, label
        assert not pair.backward.is_packed, label


def test_later_pack_equals_dense_build(queried):
    dense = _dense_build(queried)
    matrices = queried.matrices()
    assert set(matrices) == set(dense)
    n = queried.n_nodes
    for label, pair in matrices.items():
        pair.pack()
        for got, want in zip((pair.forward, pair.backward), dense[label]):
            nodes = sorted(want)
            assert got._row_nodes.tolist() == nodes
            assert np.array_equal(
                got._packed,
                np.array([want[node].words for node in nodes]),
            )
            assert got.rows.keys() == want.keys()
            for node, row in want.items():
                assert got.rows[node] == row
            assert got.summary == Bitset.from_indices(n, nodes)


def test_matrices_allocate_under_four_times_edge_columns(lubm):
    graph = Graph.from_edges(lubm.edges())
    column_bytes = 2 * np.dtype(np.int64).itemsize * lubm.n_edges
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        matrices = graph.matrices()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert matrices
    assert retained < 4 * column_bytes


def test_loading_adds_no_container_per_node(lubm):
    """Loading appends id columns: the GC-tracked objects it adds stay
    under 1 % of the node count (a set per node would be 100 %+)."""
    triples = list(lubm.triples())
    gc.collect()
    before = len(gc.get_objects())
    db = GraphDatabase.from_triples(triples)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert db.n_nodes == lubm.n_nodes
    assert added < db.n_nodes // 100, (added, db.n_nodes)
