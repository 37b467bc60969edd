"""Unit tests for cardinality statistics."""

import pytest

from repro.rdf import Variable
from repro.sparql import TriplePattern
from repro.store import StoreStatistics, TripleStore


def v(name):
    return Variable(name)


@pytest.fixture
def store():
    triples = [("s%d" % i, "common", "o%d" % (i % 3)) for i in range(9)]
    triples += [("s0", "rare", "o0")]
    return TripleStore.from_triples(triples)


@pytest.fixture
def stats(store):
    return StoreStatistics(store)


class TestStatistics:
    def test_totals(self, store, stats):
        assert stats.total_triples == 10
        common = store.predicates.require("common")
        assert stats.predicate_count[common] == 9
        assert stats.subject_count[common] == 9
        assert stats.object_count[common] == 3

    def test_selectivity(self, store, stats):
        common = store.predicates.require("common")
        rare = store.predicates.require("rare")
        assert stats.selectivity(common) == 0.9
        assert stats.selectivity(rare) == pytest.approx(0.1)
        assert stats.selectivity(999) == 0.0

    def test_estimate_unbound(self, stats):
        tp = TriplePattern(v("s"), "common", v("o"))
        assert stats.estimate_pattern(tp, set()) == 9.0

    def test_estimate_bound_subject(self, stats):
        tp = TriplePattern(v("s"), "common", v("o"))
        assert stats.estimate_pattern(tp, {v("s")}) == pytest.approx(1.0)

    def test_estimate_bound_object(self, stats):
        tp = TriplePattern(v("s"), "common", v("o"))
        assert stats.estimate_pattern(tp, {v("o")}) == pytest.approx(3.0)

    def test_estimate_constant_counts_as_bound(self, stats):
        tp = TriplePattern("s0", "common", v("o"))
        assert stats.estimate_pattern(tp, set()) == pytest.approx(1.0)

    def test_estimate_unknown_predicate(self, stats):
        tp = TriplePattern(v("s"), "nope", v("o"))
        assert stats.estimate_pattern(tp, set()) == 0.0

    def test_estimate_variable_predicate(self, stats):
        tp = TriplePattern(v("s"), v("p"), v("o"))
        assert stats.estimate_pattern(tp, set()) == 10.0

    def test_empty_store(self):
        stats = StoreStatistics(TripleStore.from_triples([]))
        assert stats.total_triples == 0
        assert stats.selectivity(0) == 0.0
