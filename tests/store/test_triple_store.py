"""Unit tests for the indexed triple store."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.pruning import PruneResult
from repro.errors import StoreError
from repro.graph import GraphDatabase, Literal
from repro.store import TripleStore


@pytest.fixture
def store():
    return TripleStore.from_triples([
        ("a", "p", "b"),
        ("a", "p", "c"),
        ("b", "p", "c"),
        ("a", "q", "b"),
        ("c", "r", Literal(5)),
    ])


class TestConstruction:
    def test_literal_subject_rejected(self):
        with pytest.raises(StoreError):
            TripleStore.from_triples([(Literal(1), "p", "o")])

    def test_counts(self, store):
        assert store.n_triples == 5
        assert len(store) == 5
        assert store.n_predicates == 3
        assert store.n_nodes == 4  # a, b, c, Literal(5)

    def test_roundtrip_graph_database(self, store):
        db = GraphDatabase.from_triples(store.triples())
        assert db.n_triples == 5
        again = TripleStore.from_graph_database(db)
        assert set(again.triples()) == set(store.triples())


class TestLookups:
    def test_contains(self, store):
        assert store.contains("a", "p", "b")
        assert not store.contains("b", "p", "a")
        assert not store.contains("zzz", "p", "b")

    def test_objects_subjects(self, store):
        a = store.nodes.require("a")
        b = store.nodes.require("b")
        c = store.nodes.require("c")
        p = store.predicates.require("p")
        assert {o for _, _, o in store.match_ids(a, p, None)} == {b, c}
        assert {s for s, _, _ in store.match_ids(None, p, c)} == {a, b}
        assert list(store.match_ids(c, p, None)) == []

    def test_pairs(self, store):
        p = store.predicates.require("p")
        assert len(list(store.match_ids(None, p, None))) == 3

    def test_statistics_accessors(self, store):
        p = store.predicates.require("p")
        assert store.predicate_count(p) == 3
        assert store.distinct_subjects(p) == 2  # a, b
        assert store.distinct_objects(p) == 2  # b, c


class TestMatchIds:
    def _ids(self, store, s=None, p=None, o=None):
        sid = store.nodes.lookup(s) if s else None
        pid = store.predicates.lookup(p) if p else None
        oid = store.nodes.lookup(o) if o else None
        return set(store.match_ids(sid, pid, oid))

    def test_fully_bound(self, store):
        assert len(self._ids(store, "a", "p", "b")) == 1

    def test_sp_bound(self, store):
        assert len(self._ids(store, "a", "p")) == 2

    def test_po_bound(self, store):
        assert len(self._ids(store, None, "p", "c")) == 2

    def test_p_bound(self, store):
        assert len(self._ids(store, None, "p")) == 3

    def test_unbound_predicate_scans_all(self, store):
        a = store.nodes.require("a")
        matches = set(store.match_ids(a, None, None))
        assert len(matches) == 3  # a p b, a p c, a q b

    def test_full_scan(self, store):
        assert len(set(store.match_ids(None, None, None))) == 5

    def test_unknown_predicate_id_empty(self, store):
        # An id that no triple carries matches nothing (name-level
        # misses are the executor's responsibility).
        assert set(store.match_ids(None, 999, None)) == set()


class TestSubset:
    """A pruning result's store: a subset of the triples, read through
    the full store's dictionaries."""

    def test_subset_preserves_names(self, store):
        a = store.nodes.require("a")
        b = store.nodes.require("b")
        kept = {"p": (np.array([a]), np.array([b]))}
        sub = PruneResult(store.source, kept, 5, 0.0).to_store(store)
        assert sub.n_triples == 1
        assert sub.contains("a", "p", "b")
        assert not sub.contains("a", "p", "c")

    def test_empty_subset(self, store):
        sub = PruneResult(store.source, {}, 5, 0.0).to_store(store)
        assert sub.n_triples == 0

    def test_repr(self, store):
        assert "triples=5" in repr(store)


class TestIdOrder:
    def test_ids_follow_the_graph(self, store):
        db = store.source
        assert list(db.nodes()) == list(store.nodes.terms())
        again = TripleStore.from_graph_database(db)
        assert list(again.nodes.terms()) == list(db.nodes())
        assert list(again.predicates.terms()) == sorted(db.labels)

    def test_ids_do_not_depend_on_the_hash_seed(self):
        """Node and predicate ids come from the graph's insertion order
        and the sorted labels, not from set iteration order."""
        script = (
            "from repro.store import TripleStore\n"
            "from repro.workloads import generate_lubm\n"
            "db = generate_lubm(n_universities=1, seed=7, "
            "spiral_length=8)\n"
            "store = TripleStore.from_graph_database(db)\n"
            "print(repr(list(store.nodes.terms())))\n"
            "print(repr(list(store.predicates.terms())))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        orders = []
        for seed in ("0", "7"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            orders.append(run.stdout)
        assert orders[0] == orders[1]


class TestIndexLayout:
    def test_filled_indexes_hold_no_per_row_container(self, small_lubm):
        """The indexes read each label direction's CSR as the graph
        holds it: filling every label leaves next to no object for the
        garbage collector to track, where one set per row would add
        one object per CSR row."""
        store = TripleStore.from_graph_database(small_lubm)
        rows = sum(
            pair.forward.summary.count() + pair.backward.summary.count()
            for pair in small_lubm.matrices().values()
        )
        gc.collect()
        before = len(gc.get_objects())
        store.fill_all()
        gc.collect()
        added = len(gc.get_objects()) - before
        assert added < 0.05 * rows, (added, rows)
