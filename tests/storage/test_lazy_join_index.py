"""Lazy per-label join indexes, on every backend's store.

The cold-start contract: opening a store builds **no** join index
(pso/pos) — each label's index is filled from its view's sorted
``(s, o)`` columns on the first engine touch, and the per-label
statistics the query advisor needs come from the view's counts,
fill-free.  One :class:`~repro.store.TripleStore` class serves every
backend, so each test runs over all of them: memory, snapshot, an edit
session over a snapshot (one clean label and one dirty label), and
the per-query pruned store.
"""

from collections import Counter

import pytest

from repro.api.backend import InMemoryBackend, SnapshotBackend
from repro.core.compiler import compile_query
from repro.core.pruning import prune
from repro.core.solver import solve
from repro.rdf import Variable
from repro.sparql.ast import BGP, TriplePattern
from repro.storage import write_snapshot
from repro.store import Executor, OverlayBackend
from repro.store.bindings import solution_key
from repro.store.reference import ReferenceEvaluator
from repro.store.statistics import StoreStatistics
from repro.workloads.queries import LUBM_QUERIES

#: The label each case touches: the overlay case writes to DIRTY only.
CLEAN, DIRTY = "teacherOf", "advisor"


@pytest.fixture(scope="module")
def graph():
    from repro.workloads import generate_lubm

    return generate_lubm(n_universities=2, seed=3, spiral_length=10)


@pytest.fixture(scope="module")
def snapshot_path(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("lazy") / "lubm.snap"
    write_snapshot(graph, path)
    return path


def _edited(snapshot_path, truth):
    """An edit session over the snapshot with one retraction and one
    addition on DIRTY (no new node), and the triples it holds."""
    backend = OverlayBackend(SnapshotBackend(snapshot_path))
    retracted = min(t for t in truth if t[1] == DIRTY)
    added = (retracted[2], DIRTY, retracted[0])
    assert added not in truth
    backend.retract([retracted])
    backend.add([added])
    return backend, (truth - {retracted}) | {added}


@pytest.fixture
def cases(graph, snapshot_path):
    """``[(kind, store, triples it holds, label to touch)]``, fresh
    stores of every backend kind."""
    truth = set(graph.triples())
    memory = InMemoryBackend(graph)
    snapshot = SnapshotBackend(snapshot_path)
    clean, clean_truth = _edited(snapshot_path, truth)
    dirty, dirty_truth = _edited(snapshot_path, truth)
    (branch,) = compile_query(LUBM_QUERIES["L0"])
    pruned = prune(graph, solve(branch.soi, graph))
    out = [
        ("memory", memory.triple_store(), truth, DIRTY),
        ("snapshot", snapshot.triple_store(), truth, DIRTY),
        ("overlay-clean", clean.triple_store(), clean_truth, CLEAN),
        ("overlay-dirty", dirty.triple_store(), dirty_truth, DIRTY),
        (
            "pruned",
            pruned.to_store(InMemoryBackend(graph).triple_store()),
            set(pruned.name_triples()),
            DIRTY,
        ),
    ]
    yield out
    for backend in (snapshot, clean, dirty):
        backend.close()


def _names(store, id_triples):
    decode, label = store.nodes.decode, store.predicates.decode
    return {(decode(s), label(p), decode(o)) for s, p, o in id_triples}


def _counts(triples, label):
    pairs = [(s, o) for s, p, o in triples if p == label]
    return (
        len(pairs),
        len({s for s, _ in pairs}),
        len({o for _, o in pairs}),
    )


class TestColdStart:
    def test_open_fills_nothing(self, cases):
        for kind, store, _, _ in cases:
            assert store.fill_count == 0, kind
            assert store.filled_predicates == frozenset(), kind

    def test_size_known_without_decoding(self, cases):
        for kind, store, truth, _ in cases:
            assert len(store) == len(truth), kind
            assert store.fill_count == 0, kind

    def test_statistics_are_decode_free(self, cases):
        """The advisor's full statistics sweep fills nothing, and each
        label's three counts equal counts recomputed from the triples
        the store holds."""
        for kind, store, _, _ in cases:
            StoreStatistics(store)
            assert store.fill_count == 0, kind
            counts = {
                store.predicates.decode(p): (
                    store.predicate_count(p),
                    store.distinct_subjects(p),
                    store.distinct_objects(p),
                )
                for p in range(len(store.predicates))
            }
            assert store.fill_count == 0, kind
            triples = list(store.triples())
            for label, got in counts.items():
                assert got == _counts(triples, label), (kind, label)

    def test_statistics_agree_with_eager(self, cases):
        """Selectivity per label equals the one over the held triples."""
        for kind, store, truth, _ in cases:
            stats = StoreStatistics(store)
            per_label = Counter(p for _, p, _ in truth)
            for p in store.predicate_ids():
                label = store.predicates.decode(p)
                assert stats.selectivity(p) == \
                    per_label[label] / len(truth), (kind, label)
            assert {
                store.predicates.decode(p) for p in store.predicate_ids()
            } == set(per_label), kind


class TestFillOnTouch:
    def test_match_fills_only_the_touched_predicate(self, cases):
        for kind, store, _, label in cases:
            p = store.predicates.require(label)
            list(store.match_ids(None, p, None))
            assert store.fill_count == 1, kind
            assert store.filled_predicates == frozenset({p}), kind

    def test_second_touch_is_free(self, cases):
        for kind, store, _, label in cases:
            p = store.predicates.require(label)
            list(store.match_ids(None, p, None))
            list(store.match_ids(None, p, None))
            assert store.fill_count == 1, kind

    def test_wildcard_match_fills_all(self, cases):
        for kind, store, _, _ in cases:
            rows = list(store.match_ids(None, None, None))
            assert store.fill_count == len(store.predicates), kind
            assert len(rows) == len(store), kind

    def test_contains_fills_one(self, cases):
        for kind, store, truth, label in cases:
            s, _, o = min(t for t in truth if t[1] == label)
            assert store.contains(s, label, o), kind
            assert store.fill_count == 1, kind

    def test_fill_all_is_idempotent(self, cases):
        for kind, store, _, _ in cases:
            store.fill_all()
            n = store.fill_count
            assert n == len(store.predicates), kind
            store.fill_all()
            assert store.fill_count == n, kind


class TestAnswerEquality:
    def test_per_predicate_matches_agree(self, cases):
        for kind, store, truth, _ in cases:
            for p in range(len(store.predicates)):
                label = store.predicates.decode(p)
                got = _names(store, store.match_ids(None, p, None))
                assert got == {t for t in truth if t[1] == label}, \
                    (kind, label)

    def test_full_scan_agrees(self, cases):
        for kind, store, truth, _ in cases:
            assert set(store.triples()) == truth, kind

    def test_bound_patterns_agree(self, cases):
        for kind, store, truth, label in cases:
            s, _, o = min(t for t in truth if t[1] == label)
            sid, p, oid = (
                store.nodes.require(s), store.predicates.require(label),
                store.nodes.require(o),
            )
            assert _names(store, store.match_ids(sid, p, None)) == {
                t for t in truth if t[:2] == (s, label)
            }, kind
            assert _names(store, store.match_ids(None, p, oid)) == {
                t for t in truth if t[1:] == (label, o)
            }, kind

    def test_matches_equal_reference(self, cases):
        """Bound and unbound patterns of the touched label, and a join
        on its subjects, through the executor and the reference
        evaluator."""
        x, y, z, q = (Variable(n) for n in "xyzq")
        for kind, store, truth, label in cases:
            s, _, o = min(t for t in truth if t[1] == label)
            patterns = [
                BGP([TriplePattern(x, label, y)]),
                BGP([TriplePattern(s, label, y)]),
                BGP([TriplePattern(x, label, o)]),
                BGP([TriplePattern(x, label, y), TriplePattern(x, q, z)]),
            ]
            for pattern in patterns:
                got = {
                    solution_key(mu)
                    for mu in Executor(store).evaluate(pattern)
                }
                assert got, (kind, pattern)
                assert got == ReferenceEvaluator(store).as_set(pattern), \
                    (kind, pattern)


class TestImmutability:
    def test_add_raises(self, cases):
        """A store has no write surface: writes go through
        ``Database.add`` / ``retract``."""
        for kind, store, _, _ in cases:
            with pytest.raises(AttributeError):
                store.add("s", "p", "o")
