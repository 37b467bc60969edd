"""End-to-end reproduction of every worked example in the paper."""

import pytest

from repro.core import (
    compile_query,
    largest_dual_simulation,
    ma_dual_simulation,
    prune,
    solve,
)
from repro.graph import Graph, figure4_database, figure4_pattern
from repro.pipeline import PruningPipeline
from repro.rdf import Variable
from repro.store import QueryEngine, TripleStore


def v(name):
    return Variable(name)


class TestX1:
    """Query (X1): directors with a movie and a coworker (Sect. 1)."""

    def test_result_set(self, movie_db, x1_query):
        engine = QueryEngine(TripleStore.from_graph_database(movie_db))
        result = engine.execute(x1_query)
        directors = {mu[v("director")] for mu in result.decoded()}
        assert directors == {"B. De Palma", "G. Hamilton"}

    def test_dual_simulation_2_of_sect2(self, movie_db, x1_query):
        """Relation (2): exactly the nodes of the two X1 subgraphs."""
        [compiled] = compile_query(x1_query)
        result = solve(compiled.soi, movie_db)
        assert result.candidates(compiled.mandatory_vid(v("director"))) == {
            "B. De Palma", "G. Hamilton",
        }
        assert result.candidates(compiled.mandatory_vid(v("coworker"))) == {
            "D. Koepp", "H. Saltzman",
        }
        assert result.candidates(compiled.mandatory_vid(v("movie"))) == {
            "Mission: Impossible", "Goldfinger",
        }


class TestX2:
    """Query (X2): OPTIONAL coworker (Sect. 4.3)."""

    def test_result_adds_optional_directors(self, movie_db, x2_query):
        engine = QueryEngine(TripleStore.from_graph_database(movie_db))
        result = engine.execute(x2_query)
        directors = {mu[v("director")] for mu in result.decoded()}
        assert directors == {
            "B. De Palma", "G. Hamilton", "D. Koepp", "T. Young",
        }

    def test_pruning_sound(self, movie_db, x2_query):
        report = PruningPipeline(movie_db).run(x2_query, name="X2")
        assert report.results_equal


class TestX3:
    """Query (X3) on Fig. 5: non-well-designed optional (Sect. 4.4)."""

    def test_two_matches(self, fig5_db, x3_query):
        engine = QueryEngine(TripleStore.from_graph_database(fig5_db))
        result = engine.execute(x3_query)
        assert len(result) == 2

    def test_pruning_sound(self, fig5_db, x3_query):
        report = PruningPipeline(fig5_db).run(x3_query, name="X3")
        assert report.results_equal


class TestFigure2:
    """Fig. 2 + the Sect. 3.2 bit-matrix walkthrough."""

    def test_r1_r2_example(self):
        # Reproduces the r1/r2 computation of Sect. 3.2 exactly.
        from repro.bitvec import Bitset, build_label_matrices
        # v1=place v2=director1 v3=director2 v4=coworker v5=movie
        pair = build_label_matrices(
            5, [(1, "born_in", 0), (2, "born_in", 0)]
        )["born_in"]
        chi = Bitset.ones(5)
        r1 = pair.product(chi, "forward", strategy="row")
        r2 = pair.product(chi, "backward", strategy="row")
        assert list(int(i in r1.to_set()) for i in range(5)) == [1, 0, 0, 0, 0]
        assert list(int(i in r2.to_set()) for i in range(5)) == [0, 1, 1, 0, 0]

    def test_largest_solution_is_relation_1(self):
        fig2a = Graph()
        fig2a.add_edge("director1", "born_in", "place")
        fig2a.add_edge("director2", "born_in", "place")
        fig2a.add_edge("director1", "worked_with", "coworker")
        fig2a.add_edge("director2", "directed", "movie")
        fig2b = Graph()
        fig2b.add_edge("director", "born_in", "place")
        fig2b.add_edge("director", "worked_with", "coworker")
        fig2b.add_edge("director", "directed", "movie")
        relation = largest_dual_simulation(fig2a, fig2b).to_relation()
        assert relation["director1"] == relation["director2"] == {"director"}

    def test_fig2b_dual_simulates_x1_pattern_ignoring_place(self, movie_db):
        # Sect. 2: the Fig. 2(b) graph dual simulates the X1 pattern
        # by ignoring node place.
        x1_pattern = Graph()
        x1_pattern.add_edge("director", "directed", "movie")
        x1_pattern.add_edge("director", "worked_with", "coworker")
        fig2b = Graph()
        fig2b.add_edge("director", "born_in", "place")
        fig2b.add_edge("director", "worked_with", "coworker")
        fig2b.add_edge("director", "directed", "movie")
        relation = largest_dual_simulation(x1_pattern, fig2b).to_relation()
        assert relation["director"] == {"director"}
        assert "place" not in relation["movie"] | relation["coworker"]


class TestFigure4:
    """Sect. 4.1: the p4 counterexample to completeness."""

    def test_soi_and_ma_keep_p4(self):
        p, k = figure4_pattern(), figure4_database()
        soi_relation = largest_dual_simulation(p, k).to_relation()
        ma_relation = ma_dual_simulation(p, k).relation
        assert soi_relation == ma_relation
        assert "p4" in soi_relation["v"]


class TestX1Pruning:
    """Sect. 5-style pruning on the running example."""

    def test_pruning_keeps_4_of_20(self, movie_db, x1_query):
        [compiled] = compile_query(x1_query)
        outcome = prune(movie_db, solve(compiled.soi, movie_db))
        assert outcome.n_triples_before == 20
        assert outcome.n_triples_after == 4
        assert outcome.pruned_fraction == pytest.approx(0.8)
