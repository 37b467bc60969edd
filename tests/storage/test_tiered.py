"""TieredGraphView: lazy promotion, residency accounting, and the
solver-facing adjacency interface."""

import pytest

from repro.core import compile_query, solve
from repro.errors import GraphError
from repro.storage import TieredGraphView, write_snapshot
from repro.workloads import generate_lubm


@pytest.fixture(scope="module")
def small_lubm():
    return generate_lubm(n_universities=1, seed=7, spiral_length=6)


@pytest.fixture
def lubm_view(small_lubm, tmp_path):
    path = tmp_path / "lubm.snap"
    write_snapshot(small_lubm, path)
    return TieredGraphView(path)


class TestInterface:
    def test_counts_and_names(self, small_lubm, lubm_view):
        assert lubm_view.n_nodes == small_lubm.n_nodes
        assert lubm_view.n_edges == small_lubm.n_edges
        assert lubm_view.n_triples == small_lubm.n_triples
        assert lubm_view.labels == small_lubm.labels
        for i in range(small_lubm.n_nodes):
            name = small_lubm.node_name(i)
            assert lubm_view.node_name(i) == name
            assert lubm_view.node_index(name) == i
            assert lubm_view.has_node(name)

    def test_unknown_node(self, lubm_view):
        assert not lubm_view.has_node("nope")
        with pytest.raises(GraphError):
            lubm_view.node_index("nope")

    def test_nodes_bitset(self, small_lubm, lubm_view):
        names = [small_lubm.node_name(i) for i in (0, 3, 5)]
        assert (
            lubm_view.nodes_bitset(names)
            == small_lubm.nodes_bitset(names)
        )

    def test_triples_match(self, small_lubm, lubm_view):
        assert set(lubm_view.triples()) == set(small_lubm.triples())

    def test_to_graph_database(self, small_lubm, lubm_view):
        materialized = lubm_view.to_graph_database()
        assert set(materialized.triples()) == set(small_lubm.triples())


class TestPromotion:
    def test_cold_until_touched(self, lubm_view):
        report = lubm_view.residency()
        assert report.promotions == 0
        assert report.cold_labels > 0

    def test_get_promotes_once(self, lubm_view):
        matrices = lubm_view.matrices()
        cold_label = next(
            lab for lab in lubm_view.labels
            if not lubm_view.is_resident(lab)
        )
        pair = matrices.get(cold_label)
        assert pair is not None
        assert lubm_view.is_resident(cold_label)
        assert lubm_view.promotions == 1
        assert matrices.get(cold_label) is pair  # cached, not re-decoded
        assert lubm_view.promotions == 1

    def test_mapping_iteration_does_not_promote(self, lubm_view):
        matrices = lubm_view.matrices()
        assert set(matrices.keys()) == lubm_view.labels
        assert len(matrices) == len(lubm_view.labels)
        for label in lubm_view.labels:
            assert label in matrices
        assert lubm_view.promotions == 0

    def test_get_unknown_label(self, lubm_view):
        assert lubm_view.matrices().get("no-such-label") is None
        with pytest.raises(KeyError):
            lubm_view.matrices()["no-such-label"]
        assert lubm_view.label_matrix("no-such-label") is None

    def test_promote_unknown_label(self, lubm_view):
        with pytest.raises(GraphError):
            lubm_view.promote("no-such-label")

    def test_promote_all(self, lubm_view):
        lubm_view.promote_all()
        report = lubm_view.residency()
        assert report.cold_labels == 0
        assert report.promotions == report.n_labels

    def test_promoted_matrices_equal_in_memory(self, small_lubm, lubm_view):
        for label, pair in small_lubm.matrices().items():
            loaded = lubm_view.matrices()[label]
            assert loaded.forward.summary == pair.forward.summary
            assert loaded.n_edges == pair.n_edges
            for node, row in pair.forward.rows.items():
                assert loaded.forward.rows[node] == row
            for node, row in pair.backward.rows.items():
                assert loaded.backward.rows[node] == row


class TestResidency:
    def test_promotion_grows_resident_bytes(self, lubm_view):
        before = lubm_view.residency().resident_bytes
        cold_label = next(
            lab for lab in lubm_view.labels
            if not lubm_view.is_resident(lab)
        )
        lubm_view.matrices().get(cold_label)
        after = lubm_view.residency().resident_bytes
        assert after > before

    def test_promoted_labels_recorded(self, lubm_view):
        lubm_view.matrices().get("advisor")
        report = lubm_view.residency()
        assert "advisor" in report.promoted_labels
        assert report.promotions == len(report.promoted_labels)

    def test_on_disk_bytes_is_file_size(self, lubm_view):
        report = lubm_view.residency()
        assert (
            report.on_disk_bytes
            == lubm_view.reader.path.stat().st_size
        )

    def test_promotion_adopts_the_file_arrays(self, lubm_view):
        """Resident bytes after a promotion are exactly the label's
        array bytes on disk: the views are adopted, not copied."""
        lubm_view.matrices().get("advisor")
        assert (
            lubm_view.residency().resident_bytes
            == lubm_view.reader.payload_bytes("advisor")
        )


class TestSolverOnView:
    QUERY = """
        SELECT * WHERE {
            ?student advisor ?professor .
            ?professor teacherOf ?course .
            ?student takesCourse ?course .
        }
    """

    def test_solve_identical_hot_cold_and_memory(
        self, small_lubm, tmp_path
    ):
        """A view promoted in full up front (hot) and one promoting
        on first touch (cold) solve exactly like the in-memory graph."""
        path = tmp_path / "lubm.snap"
        write_snapshot(small_lubm, path)
        hot = TieredGraphView(path)
        hot.promote_all()
        cold = TieredGraphView(path)
        for branch in compile_query(self.QUERY):
            expected = solve(branch.soi, small_lubm).to_relation()
            assert solve(branch.soi, hot).to_relation() == expected
            assert solve(branch.soi, cold).to_relation() == expected
        assert cold.promotions > 0

    def test_solver_promotes_only_query_labels(self, lubm_view):
        for branch in compile_query(self.QUERY):
            solve(branch.soi, lubm_view)
        promoted = set(lubm_view.residency().promoted_labels)
        assert promoted <= {"advisor", "teacherOf", "takesCourse"}
        untouched = lubm_view.labels - {"advisor", "teacherOf",
                                        "takesCourse"}
        assert all(not lubm_view.is_resident(lab) for lab in untouched
                   if lab not in promoted)


class TestPromotionIsOnce:
    """A label is promoted at most once per session: nothing ever
    sends a resident label back to disk."""

    @pytest.mark.parametrize("kernel", ("packed", "batched"))
    def test_two_passes_promote_each_label_once(
        self, small_lubm, tmp_path, kernel
    ):
        from repro import Database, ExecutionProfile
        from repro.obs import registry
        from repro.workloads import LUBM_QUERIES

        path = tmp_path / "lubm.snap"
        write_snapshot(small_lubm, path)
        counter = registry().counter("promotions_total")
        before = counter.value
        with Database.open(
            path, profile=ExecutionProfile(kernel=kernel), cached=False
        ) as db:
            for _ in range(2):
                for mode in ("pruned", "full"):
                    for name in sorted(LUBM_QUERIES):
                        db.query(LUBM_QUERIES[name], mode=mode).rows()
            report = db.stats().residency
        promoted = report.promoted_labels
        assert promoted
        assert len(set(promoted)) == len(promoted)
        assert report.promotions == report.resident_labels
        assert report.promotions == len(promoted)
        assert counter.value - before == report.promotions
