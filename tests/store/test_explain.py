"""Unit tests for QueryEngine.explain()."""

import pytest

from repro.graph import example_movie_database
from repro.store import QueryEngine, TripleStore


@pytest.fixture(scope="module")
def store():
    return TripleStore.from_graph_database(example_movie_database())


class TestExplain:
    def test_shows_profile_and_order(self, store, x1_query):
        plan = QueryEngine(store, "virtuoso-like").explain(x1_query)
        assert "profile: virtuoso-like" in plan
        assert "ordering=greedy" in plan
        assert "BGP (2 patterns)" in plan
        assert "?director directed ?movie" in plan

    def test_optional_structure(self, store, x2_query):
        plan = QueryEngine(store).explain(x2_query)
        assert "LeftJoin (OPTIONAL)" in plan

    def test_union_structure(self, store):
        plan = QueryEngine(store).explain(
            "SELECT * WHERE { { ?m genre Action . } UNION "
            "{ ?m genre Drama . } }"
        )
        assert "Union" in plan

    def test_filter_structure(self, store):
        plan = QueryEngine(store).explain(
            "SELECT * WHERE { ?c population ?p . FILTER(?p > 10) }"
        )
        assert "Filter" in plan

    def test_profiles_may_order_differently(self):
        # A store where greedy (binding-aware) and static (base-count)
        # orders diverge: 'rare' is globally small but 'mid' becomes
        # cheapest once ?x is bound.
        store = TripleStore.from_triples([
            *((f"s{i}", "heavy", f"t{i % 2}") for i in range(30)),
            *(("s0", "rare", f"r{i}") for i in range(3)),
            *((f"r{i % 3}", "mid", f"m{i}") for i in range(10)),
        ])
        query = (
            "SELECT * WHERE { ?a heavy ?b . ?a rare ?x . ?x mid ?y . }"
        )
        greedy_plan = QueryEngine(store, "virtuoso-like").explain(query)
        static_plan = QueryEngine(store, "rdfox-like").explain(query)
        assert greedy_plan != static_plan

    def test_explain_does_not_execute(self, store, x1_query):
        # explain is side-effect free: repeated calls identical.
        engine = QueryEngine(store)
        assert engine.explain(x1_query) == engine.explain(x1_query)
