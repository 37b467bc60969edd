"""Lazy per-predicate join indexes over a snapshot.

The cold-start contract: opening a snapshot builds **no** join index
(pso/pos) — each predicate's index is decoded from its own block on
the first engine touch, and the per-predicate statistics the query
advisor needs come straight from the block table, decode-free.
"""

import pytest

from repro.errors import StoreError
from repro.storage import SnapshotReader, write_snapshot
from repro.store import LazySnapshotStore, TripleStore
from repro.store.statistics import StoreStatistics


@pytest.fixture(scope="module")
def graph():
    from repro.workloads import generate_lubm

    return generate_lubm(n_universities=2, seed=3, spiral_length=10)


@pytest.fixture(scope="module")
def snapshot_path(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("lazy") / "lubm.snap"
    write_snapshot(graph, path)
    return path


@pytest.fixture
def reader(snapshot_path):
    with SnapshotReader(snapshot_path) as reader:
        yield reader


@pytest.fixture
def lazy(reader):
    return LazySnapshotStore(reader)


@pytest.fixture
def eager(graph):
    """Ground truth: the in-memory store of the graph the snapshot was
    written from.  It uses the snapshot's id space (node ids are the
    graph's indices, predicate ids the sorted labels), so ids are
    directly comparable."""
    return TripleStore.from_graph_database(graph)


class TestColdStart:
    def test_open_fills_nothing(self, lazy):
        assert lazy.fill_count == 0
        assert lazy.filled_predicates == frozenset()

    def test_size_known_without_decoding(self, lazy, reader):
        assert len(lazy) == reader.n_triples
        assert lazy.fill_count == 0

    def test_statistics_are_decode_free(self, lazy, eager):
        """The advisor's full statistics sweep must not trigger a
        single block decode, yet must agree with the eager store."""
        StoreStatistics(lazy)
        assert lazy.fill_count == 0
        for p in eager.predicate_ids():
            assert lazy.predicate_count(p) == eager.predicate_count(p)
            assert lazy.distinct_subjects(p) == \
                eager.distinct_subjects(p)
            assert lazy.distinct_objects(p) == eager.distinct_objects(p)
        assert lazy.fill_count == 0

    def test_statistics_agree_with_eager(self, lazy, eager):
        lazy_stats = StoreStatistics(lazy)
        eager_stats = StoreStatistics(eager)
        for p in eager.predicate_ids():
            assert lazy_stats.selectivity(p) == eager_stats.selectivity(p)


class TestFillOnTouch:
    def test_match_fills_only_the_touched_predicate(self, lazy):
        p = next(iter(lazy.predicate_ids()))
        list(lazy.match_ids(None, p, None))
        assert lazy.fill_count == 1
        assert lazy.filled_predicates == frozenset({p})

    def test_second_touch_is_free(self, lazy):
        p = next(iter(lazy.predicate_ids()))
        list(lazy.match_ids(None, p, None))
        list(lazy.match_ids(None, p, None))
        assert lazy.fill_count == 1

    def test_wildcard_match_fills_all(self, lazy):
        n = len(lazy.predicates)
        rows = list(lazy.match_ids(None, None, None))
        assert lazy.fill_count == n
        assert len(rows) == len(lazy)

    def test_contains_fills_one(self, lazy, eager):
        s, p, o = next(iter(eager.id_triples()))
        assert lazy.contains_ids(s, p, o)
        assert lazy.fill_count == 1

    def test_fill_all_is_idempotent(self, lazy):
        lazy.fill_all()
        n = lazy.fill_count
        assert n == len(lazy.predicates)
        lazy.fill_all()
        assert lazy.fill_count == n


class TestAnswerEquality:
    def test_per_predicate_matches_agree(self, lazy, eager):
        for p in eager.predicate_ids():
            assert sorted(lazy.match_ids(None, p, None)) == \
                sorted(eager.match_ids(None, p, None))

    def test_full_scan_agrees(self, lazy, eager):
        assert sorted(lazy.match_ids(None, None, None)) == \
            sorted(eager.match_ids(None, None, None))

    def test_bound_patterns_agree(self, lazy, eager):
        s, p, o = next(iter(eager.id_triples()))
        assert sorted(lazy.match_ids(s, p, None)) == \
            sorted(eager.match_ids(s, p, None))
        assert sorted(lazy.match_ids(None, p, o)) == \
            sorted(eager.match_ids(None, p, o))
        assert lazy.objects(s, p) == eager.objects(s, p)
        assert lazy.subjects(p, o) == eager.subjects(p, o)
        assert sorted(lazy.pairs(p)) == sorted(eager.pairs(p))


class TestImmutability:
    def test_add_raises(self, lazy):
        with pytest.raises(StoreError):
            lazy.add("s", "p", "o")
