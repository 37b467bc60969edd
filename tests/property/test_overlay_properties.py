"""Property: the overlay's merged adjacency and join indexes equal a
from-scratch build over its own triples, whatever the write history.

The overlay builds a dirty label's pair from edge columns (base
columns, retractions masked out, additions merged in) and fills the
join store from the pair's columns.  Under random batches — retracting
every edge of a label, re-adding them, adding edges between new nodes
— every rebuilt pair must equal :func:`build_label_matrices` over
:meth:`OverlayBackend.triples`, and the store's pso/pos indexes must
equal dicts of sets built from the same triples.  Both base kinds
(in-memory and snapshot) run.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.api.backend import InMemoryBackend, SnapshotBackend
from repro.bitvec.matrix import build_label_matrices
from repro.graph import GraphDatabase
from repro.storage import write_snapshot
from repro.store import OverlayBackend

NODES = tuple(f"n{i}" for i in range(6))
NEW_NODES = tuple(f"m{i}" for i in range(3))
LABELS = ("p", "q", "r")

triples = st.tuples(
    st.sampled_from(NODES), st.sampled_from(LABELS), st.sampled_from(NODES)
)
new_node_triples = st.tuples(
    st.sampled_from(NODES + NEW_NODES),
    st.sampled_from(LABELS),
    st.sampled_from(NEW_NODES),
)
operations = st.one_of(
    st.tuples(st.just("add"), triples),
    st.tuples(st.just("retract"), triples),
    st.tuples(st.just("add"), new_node_triples),
    st.tuples(st.just("retract_label"), st.sampled_from(LABELS)),
    st.tuples(st.just("readd_label"), st.sampled_from(LABELS)),
)
scripts = st.tuples(
    st.lists(triples, min_size=1, max_size=14),
    st.lists(
        st.lists(operations, min_size=1, max_size=4), min_size=1, max_size=4
    ),
    st.booleans(),
)


def _apply(backend, batch, retracted):
    """One batch, as one add call and one retract call per operation."""
    for op, arg in batch:
        if op == "add":
            backend.add([arg])
        elif op == "retract":
            backend.retract([arg])
        elif op == "retract_label":
            gone = sorted(t for t in backend.triples() if t[1] == arg)
            backend.retract(gone)
            retracted[arg] = gone
        else:  # re-add what the last retract_label of this label took
            backend.add(retracted.get(arg, ()))


def _assert_same_csr(got, want):
    for a, b in zip(got._csr(), want._csr()):
        assert np.array_equal(a, b)


def _check(backend):
    view = backend.graph
    n = view.n_nodes
    index = view.node_index
    current = list(backend.triples())
    want = build_label_matrices(
        n, ((index(s), p, index(o)) for s, p, o in current)
    )
    assert view.labels == set(want)
    for label in LABELS:
        rebuilt = view._build_pair(label)
        assert rebuilt.n == n
        expected = want.get(label)
        if expected is None:
            assert rebuilt.n_edges == 0
            assert view.matrices().get(label) is None
            continue
        served = view.matrices()[label]
        for pair in (rebuilt, served):
            _assert_same_csr(pair.forward, expected.forward)
            _assert_same_csr(pair.backward, expected.backward)

    store = backend.triple_store()
    store.fill_all()
    node_id = store.nodes.lookup
    for p in store.predicate_ids():
        label = store.predicates.decode(p)
        by_subject, by_object = {}, {}
        for s, q, o in current:
            if q == label:
                by_subject.setdefault(node_id(s), set()).add(node_id(o))
                by_object.setdefault(node_id(o), set()).add(node_id(s))
        for index, want in ((store._pso[p], by_subject),
                            (store._pos[p], by_object)):
            assert {row: set(members) for row, members in index.items()} \
                == want, label


@given(script=scripts)
@settings(max_examples=60, deadline=None)
def test_column_built_overlay_matches_flat_rebuild(script):
    base_triples, batches, on_snapshot = script
    base_db = GraphDatabase.from_triples(base_triples)
    with tempfile.TemporaryDirectory() as tmp:
        if on_snapshot:
            path = Path(tmp) / "base.snap"
            write_snapshot(base_db, path)
            base = SnapshotBackend(path)
        else:
            base = InMemoryBackend(base_db)
        backend = OverlayBackend(base)
        try:
            backend.triple_store().fill_all()  # indexes to invalidate
            retracted = {}
            for batch in batches:
                _apply(backend, batch, retracted)
                _check(backend)
        finally:
            backend.close()
