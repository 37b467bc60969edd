"""Unit tests for the SPARQL -> SOI compiler (Sect. 4 machinery)."""

import pytest

from repro.core import (
    CopyInequality,
    compile_pattern,
    compile_query,
    pattern_to_graph,
    solve,
)
from repro.errors import QueryError
from repro.rdf import Variable
from repro.sparql import BGP, TriplePattern, parse_query


def v(name):
    return Variable(name)


def copy_count(compiled):
    return sum(
        1 for i in compiled.soi.inequalities if isinstance(i, CopyInequality)
    )


class TestBGPCompilation:
    def test_x1_shape(self, x1_query):
        [compiled] = compile_query(x1_query)
        soi = compiled.soi
        assert soi.n_variables == 3
        assert len(soi.edges) == 2
        assert len(soi.inequalities) == 4
        assert copy_count(compiled) == 0

    def test_shared_variable_single_vid(self):
        [compiled] = compile_query(
            "SELECT * WHERE { ?a p ?b . ?b q ?c . }"
        )
        assert compiled.soi.n_variables == 3

    def test_constants_become_pinned_variables(self):
        [compiled] = compile_query("SELECT * WHERE { ?m genre Action . }")
        soi = compiled.soi
        constants = [var for var in soi.variables if var.has_constant]
        assert len(constants) == 1
        assert constants[0].constant == "Action"

    def test_repeated_constant_same_vid(self):
        [compiled] = compile_query(
            "SELECT * WHERE { ?a p K . ?b q K . }"
        )
        constants = [var for var in compiled.soi.variables if var.has_constant]
        assert len(constants) == 1

    def test_variable_predicate_rejected(self):
        with pytest.raises(QueryError):
            compile_query("SELECT * WHERE { ?s ?p ?o . }")

    def test_self_loop_variable(self):
        [compiled] = compile_query("SELECT * WHERE { ?x knows ?x . }")
        assert compiled.soi.n_variables == 1
        assert len(compiled.soi.edges) == 1

    def test_mandatory_vids_exposed(self, x1_query):
        [compiled] = compile_query(x1_query)
        assert compiled.mandatory_vid(v("director")) is not None
        assert compiled.mandatory_vid(v("ghost")) is None
        assert compiled.variables() == {v("director"), v("movie"), v("coworker")}


class TestOptionalCompilation:
    def test_x2_surrogate_and_copy(self, x2_query):
        """Inequality (14): ?director_o <= ?director_m."""
        [compiled] = compile_query(x2_query)
        soi = compiled.soi
        # 4 variables: director_m, movie, director_o, coworker.
        assert soi.n_variables == 4
        assert copy_count(compiled) == 1
        # The surrogate list of ?director holds the optional vid.
        all_vids = compiled.all_vids(v("director"))
        assert len(all_vids) == 2

    def test_optional_only_variable_not_renamed(self, x2_query):
        [compiled] = compile_query(x2_query)
        # ?coworker occurs only in the optional: one vid, in opt.
        assert compiled.mandatory_vid(v("coworker")) is None
        assert len(compiled.all_vids(v("coworker"))) == 1

    def test_x3_non_well_designed(self, x3_query):
        """(X3): v2 gets v2o <= v2m; the optional v3 occurrence gets
        v3R2 <= v3 toward the mandatory AND side."""
        [compiled] = compile_query(x3_query)
        assert copy_count(compiled) == 2
        # v3 is mandatory (second conjunct).
        assert compiled.mandatory_vid(v("v3")) is not None
        # v2 is mandatory (first BGP of the optional pattern).
        assert compiled.mandatory_vid(v("v2")) is not None

    def test_nested_optional_chain(self):
        """R1 OPT (R2 OPT R3): z_R3 <= z_R2 <= z (Sect. 4.4)."""
        query = (
            "SELECT * WHERE { ?z p ?a . OPTIONAL { ?z q ?b . "
            "OPTIONAL { ?z r ?c . } } }"
        )
        [compiled] = compile_query(query)
        # z appears three times: mandatory + two surrogates.
        assert len(compiled.all_vids(v("z"))) == 3
        assert copy_count(compiled) == 2

    def test_sibling_optionals_not_interdependent(self):
        """(P1 OPT P2) OPT P3 with x only in P2 and P3: renamed apart,
        no copy constraint between the x surrogates (Sect. 4.4)."""
        query = (
            "SELECT * WHERE { ?y p ?a . OPTIONAL { ?x q ?y . } "
            "OPTIONAL { ?x r ?y . } }"
        )
        [compiled] = compile_query(query)
        x_vids = compiled.all_vids(v("x"))
        assert len(x_vids) == 2
        # Copies exist only for y (toward mandatory), not between xs.
        copies = [
            i for i in compiled.soi.inequalities if isinstance(i, CopyInequality)
        ]
        x_set = set(x_vids)
        for copy in copies:
            assert not (
                compiled.soi.find(copy.target) in x_set
                and compiled.soi.find(copy.source) in x_set
            )

    def test_non_well_designed_nested_optional_not_anchored(self):
        """R1 OPT (R2 OPT R3) with z in R1 and R3 but not R2: the R3
        surrogate of z stays free.  Anchoring it to z pruned n0 p n0,
        whose inner match {b=n1, z=n0} conflicts with z=n1 and so
        keeps the bare {z=n1}; the pruned store then answered
        {z=n1, b=n1} instead."""
        from repro.graph import GraphDatabase
        from repro.pipeline import PruningPipeline

        query = (
            "SELECT * WHERE { ?z r ?z . OPTIONAL { ?b r ?b . "
            "OPTIONAL { ?z p ?z . } } }"
        )
        [compiled] = compile_query(query)
        assert len(compiled.all_vids(v("z"))) == 2
        assert copy_count(compiled) == 0
        db = GraphDatabase()
        db.add_triple("n0", "p", "n0")
        db.add_triple("n1", "r", "n1")
        report = PruningPipeline(db).run(query, name="nested-nwd")
        assert report.results_preserved
        assert report.results_equal

    def test_and_unifies_mandatory(self):
        query = "SELECT * WHERE { { ?a p ?b . } { ?a q ?c . } }"
        [compiled] = compile_query(query)
        # ?a unified: 3 canonical roots.
        assert len(compiled.soi.roots()) == 3
        assert len(compiled.all_vids(v("a"))) == 1


class TestUnionCompilation:
    def test_union_splits_branches(self):
        query = (
            "SELECT * WHERE { { ?a p ?b . } UNION { ?a q ?b . } }"
        )
        compiled = compile_query(query)
        assert len(compiled) == 2

    def test_union_inside_join_distributes(self):
        query = (
            "SELECT * WHERE { ?a r ?c . { ?a p ?b . } UNION { ?a q ?b . } }"
        )
        compiled = compile_query(query)
        assert len(compiled) == 2
        for branch in compiled:
            assert len(branch.soi.edges) == 2

    def test_direct_union_pattern_rejected_by_compile_pattern(self):
        query = parse_query(
            "SELECT * WHERE { { ?a p ?b . } UNION { ?a q ?b . } }"
        )
        with pytest.raises(QueryError):
            compile_pattern(query.pattern)


class TestFilterCompilation:
    def test_filters_ignored(self):
        [compiled] = compile_query(
            "SELECT * WHERE { ?a p ?b . FILTER(?b > 5) }"
        )
        assert len(compiled.soi.edges) == 1


class TestSoundnessOnExamples:
    def test_x2_solution_includes_all_directors(self, movie_db, x2_query):
        [compiled] = compile_query(x2_query)
        result = solve(compiled.soi, movie_db)
        director_vid = compiled.mandatory_vid(v("director"))
        directors = result.candidates(director_vid)
        # All four directors with a directed edge are mandatory matches.
        assert directors == {
            "B. De Palma", "G. Hamilton", "D. Koepp", "T. Young",
        }
        # The optional surrogate only keeps those with worked_with.
        surrogates = [
            vid for vid in compiled.all_vids(v("director"))
            if vid != director_vid
        ]
        assert result.candidates(surrogates[0]) == {
            "B. De Palma", "G. Hamilton",
        }

    def test_x3_on_fig5(self, fig5_db, x3_query):
        [compiled] = compile_query(x3_query)
        result = solve(compiled.soi, fig5_db)
        # v1=1 must survive (it participates in both matches).
        v1 = compiled.mandatory_vid(v("v1"))
        assert 1 in result.candidates(v1)
        # v3=4 survives through the mandatory c-edge.
        v3 = compiled.mandatory_vid(v("v3"))
        assert 4 in result.candidates(v3)


class TestPatternToGraph:
    def test_graph_representation(self, x1_query):
        query = parse_query(x1_query)
        graph = pattern_to_graph(query.pattern)
        assert graph.n_nodes == 3
        assert graph.n_edges == 2
        assert graph.has_edge(v("director"), "directed", v("movie"))

    def test_constants_become_nodes(self):
        bgp = BGP([TriplePattern(v("m"), "genre", "Action")])
        graph = pattern_to_graph(bgp)
        assert graph.has_node("Action")

    def test_variable_predicate_rejected(self):
        bgp = BGP([TriplePattern(v("s"), v("p"), v("o"))])
        with pytest.raises(QueryError):
            pattern_to_graph(bgp)
