"""LRU demotion over the tiered store: eviction order, touch
updates, re-promotion, and demote-while-batched."""

import pytest

from repro.core import compile_query, solve
from repro.bitvec import use_kernel
from repro.errors import GraphError
from repro.storage import TieredGraphView, write_snapshot
from repro.workloads import generate_lubm

QUERY = """
    SELECT * WHERE {
        ?student advisor ?professor .
        ?professor teacherOf ?course .
        ?student takesCourse ?course .
    }
"""


@pytest.fixture(scope="module")
def small_lubm():
    return generate_lubm(n_universities=1, seed=7, spiral_length=6)


@pytest.fixture(scope="module")
def cold_snapshot(small_lubm, tmp_path_factory):
    path = tmp_path_factory.mktemp("lru") / "cold.snap"
    write_snapshot(small_lubm, path)
    return path


@pytest.fixture
def view(cold_snapshot):
    return TieredGraphView(cold_snapshot)


class TestTouchOrder:
    def test_touch_moves_label_to_mru(self, view):
        matrices = view.matrices()
        matrices.get("advisor")
        matrices.get("teacherOf")
        assert view.lru_labels() == ("advisor", "teacherOf")
        matrices.get("advisor")  # re-touch: now most recent
        assert view.lru_labels() == ("teacherOf", "advisor")

    def test_eviction_is_lru_first(self, view):
        matrices = view.matrices()
        matrices.get("advisor")
        matrices.get("teacherOf")
        matrices.get("takesCourse")
        matrices.get("advisor")  # protect advisor by touching it last
        one_label = max(
            view.resident_bytes() // 3, 1
        )  # room for ~one label
        view.enforce_budget(one_label)
        report = view.residency()
        assert report.demoted_labels[0] == "teacherOf"
        assert "advisor" not in report.demoted_labels[:1]
        assert view.resident_bytes() <= one_label

    def test_summaries_do_not_touch_or_promote(self, view):
        summaries = view.label_summaries("advisor")
        assert summaries is not None
        assert not view.is_resident("advisor")
        pair = view.matrices().get("advisor")
        assert summaries[0] == pair.forward.summary
        assert summaries[1] == pair.backward.summary

    def test_unknown_label_summaries_none(self, view):
        assert view.label_summaries("no-such-label") is None


class TestDemotion:
    def test_demote_not_resident_raises(self, view):
        with pytest.raises(GraphError):
            view.demote("advisor")  # never touched

    def test_budget_zero_demotes_everything(self, view):
        view.matrices().get("advisor")
        view.matrices().get("teacherOf")
        view.enforce_budget(0)
        assert view.resident_bytes() == 0
        assert view.residency().resident_labels == 0
        assert view.residency().demotions == 2

    def test_repromotion_restores_identical_matrices(self, view):
        matrices = view.matrices()
        first = matrices.get("advisor")
        view.enforce_budget(0)
        assert not view.is_resident("advisor")
        again = matrices.get("advisor")
        assert again is not first  # re-adopted, not the dropped pair
        assert view.residency().promotions == 2  # adoption counted twice
        assert again.forward.summary == first.forward.summary
        for node, row in first.forward.rows.items():
            assert again.forward.rows[node] == row

    def test_midsolve_promotion_protects_needed_label(self, view):
        # A budget below any single label: every promotion overshoots,
        # so the shed pass runs on each one — but never evicts the
        # label the solver just asked for.
        view.residency_budget = 1
        for branch in compile_query(QUERY):
            solve(branch.soi, view)
        assert view.residency().demotions > 0
        view.enforce_budget()
        assert view.resident_bytes() <= 1


class TestDemoteWhileBatched:
    def test_demotion_invalidates_batched_segments(self, view):
        with use_kernel("batched"):
            for branch in compile_query(QUERY):
                solve(branch.soi, view)
        blocks = view.batched_blocks()
        assert ("advisor", "forward") in blocks or (
            "advisor", "backward"
        ) in blocks
        view.enforce_budget(0)
        assert ("advisor", "forward") not in blocks
        assert ("advisor", "backward") not in blocks
        # enforce_budget compacted: no stale slack left behind.
        assert blocks.stale_rows == 0
        assert blocks.n_rows == 0

    def test_promote_demote_repromote_same_label_mid_session(self, view):
        """The acceptance-criteria cycle: the same labels go cold and
        come back across queries of one session, on the batched
        kernel, with bit-identical fixpoints every time."""
        baselines = {}
        with use_kernel("batched"):
            for branch in compile_query(QUERY):
                baselines[branch.soi.describe()] = solve(
                    branch.soi, view
                ).total_bits()
            for _ in range(3):
                view.enforce_budget(0)  # demote every promoted label
                assert view.resident_bytes() == 0
                for branch in compile_query(QUERY):
                    result = solve(branch.soi, view)  # re-promotes
                    key = branch.soi.describe()
                    assert result.total_bits() == baselines[key]
        report = view.residency()
        assert report.demotions >= 3
        assert report.promotions > report.n_labels

    def test_batched_block_does_not_grow_across_churn(self, view):
        """Compaction keeps the shared block bounded: after each
        enforce, re-running the same query must not ratchet the
        block's row count upward."""
        with use_kernel("batched"):
            for branch in compile_query(QUERY):
                solve(branch.soi, view)
            view.enforce_budget(0)
            sizes = []
            for _ in range(3):
                for branch in compile_query(QUERY):
                    solve(branch.soi, view)
                view.enforce_budget(0)
                sizes.append(view.batched_blocks().n_rows)
        assert sizes[0] == 0  # fully compacted at the boundary
        assert len(set(sizes)) == 1
