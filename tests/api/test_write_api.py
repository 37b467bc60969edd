"""First-class write API on the session façade.

`Database.writable()` / `Database.edit(path)` open overlay-backed
sessions whose `add()` / `retract()` answer the next query, with
typed `UnsupportedOperationError` gating on every read-only backend
and `compact()` folding the delta back into a snapshot.
"""

import pytest

from repro import (
    Database,
    ExecutionProfile,
    UnsupportedOperationError,
    example_movie_database,
)
from repro.obs.metrics import registry
from repro.storage import write_snapshot
from repro.workloads import LUBM_QUERIES, generate_lubm

X1 = """
    SELECT * WHERE {
        ?director directed ?movie .
        ?director worked_with ?coworker .
    }
"""


def _canonical(result):
    return sorted(repr(row) for row in result.rows())


def _small_lubm():
    return generate_lubm(n_universities=2, seed=3, spiral_length=10)


@pytest.fixture
def snapshot_path(tmp_path):
    path = tmp_path / "movies.snap"
    write_snapshot(example_movie_database(), path)
    return path


class TestConstructors:
    def test_writable_starts_empty(self):
        db = Database.writable()
        assert db.capabilities().writable
        assert db.stats().n_triples == 0
        db.add([("a", "directed", "b"), ("a", "worked_with", "c")])
        assert db.stats().n_triples == 2

    def test_writable_wraps_existing_database(self):
        db = Database.writable(example_movie_database())
        assert db.stats().n_triples == 20
        assert db.capabilities().writable

    def test_edit_opens_snapshot_writable(self, snapshot_path):
        db = Database.edit(snapshot_path)
        try:
            assert db.capabilities().writable
            assert db.stats().n_triples == 20
        finally:
            db.close()

    def test_edit_bypasses_open_cache(self, snapshot_path):
        cached = Database.open(snapshot_path)
        editor = Database.edit(snapshot_path)
        try:
            # The editor must own a private backend: another session's
            # cached read-only view must never see this delta.
            editor.retract([("B. De Palma", "awarded", "Oscar")])
            assert editor.backend.base is not cached.backend
            assert cached.stats().n_triples == 20
            assert editor.stats().n_triples == 19
        finally:
            editor.close()
            cached.close()


class TestWriteGating:
    def test_read_only_session_rejects_writes(self):
        db = Database.in_memory(example_movie_database())
        with pytest.raises(UnsupportedOperationError) as err:
            db.add([("a", "p", "b")])
        assert "Database.writable()" in str(err.value)
        with pytest.raises(UnsupportedOperationError):
            db.retract([("a", "p", "b")])

    def test_snapshot_session_rejects_writes(self, snapshot_path):
        db = Database.open(snapshot_path, cached=False)
        try:
            with pytest.raises(UnsupportedOperationError):
                db.add([("a", "p", "b")])
        finally:
            db.close()

    def test_capabilities_of_read_only_session(self):
        caps = Database.in_memory(example_movie_database()).capabilities()
        assert not caps.writable
        assert not caps.remote


class TestWritesAnswerQueries:
    def test_add_visible_to_next_query(self):
        db = Database.writable(example_movie_database())
        before = _canonical(db.query(X1))
        db.add(
            [
                ("Q. Tarantino", "directed", "Pulp Fiction"),
                ("Q. Tarantino", "worked_with", "S. L. Jackson"),
            ]
        )
        after = _canonical(db.query(X1))
        assert len(after) == len(before) + 1
        assert any("Tarantino" in row for row in after)

    def test_retract_removes_answers(self):
        db = Database.writable(example_movie_database())
        before = _canonical(db.query(X1))
        assert db.retract([("B. De Palma", "worked_with", "D. Koepp")]) == 1
        after = _canonical(db.query(X1))
        assert len(after) < len(before)
        assert not any("D. Koepp" in row for row in after)

    def test_pruned_and_full_modes_agree_after_writes(self):
        pruned = Database.writable(
            example_movie_database(), ExecutionProfile(pruning="pruned")
        )
        full = Database.writable(
            example_movie_database(), ExecutionProfile(pruning="full")
        )
        edits = dict(
            adds=[("S. Connery", "directed", "Macbeth")],
            retracts=[("B. De Palma", "awarded", "Oscar")],
        )
        for db in (pruned, full):
            db.add(edits["adds"])
            db.retract(edits["retracts"])
        assert _canonical(pruned.query(X1)) == _canonical(full.query(X1))

    def test_epoch_property(self):
        db = Database.writable(example_movie_database())
        assert db.epoch == 0
        db.add([("a", "p", "b")])
        assert db.epoch == 1
        # Read-only sessions have no epoch.
        assert Database.in_memory(example_movie_database()).epoch is None

    @pytest.mark.parametrize("name", sorted(LUBM_QUERIES))
    def test_node_only_write_reuses_cached_fixpoint(self, name):
        # No LUBM query reads `name`: the write only adds two nodes,
        # so the re-query reuses every branch's cached fixpoint.
        query = LUBM_QUERIES[name]
        write = [("brand:new", "name", "x")]
        profile = ExecutionProfile(pruning="pruned")
        db = Database.writable(_small_lubm(), profile)
        list(db.query(query))
        n_nodes = db.stats().n_nodes
        db.add(write)
        assert db.stats().n_nodes == n_nodes + 2
        reuses = registry().counter("incremental_reuses_total")
        colds = registry().counter("incremental_cold_solves_total")
        reuses_before, colds_before = reuses.value, colds.value
        after = _canonical(db.query(query))
        assert reuses.value > reuses_before
        assert colds.value == colds_before
        if name == "L0":
            assert reuses.value == reuses_before + 1
        control = Database.writable(
            _small_lubm(), profile.replace(incremental=False)
        )
        control.add(write)
        assert after == _canonical(control.query(query))

    def test_return_counts_are_effective_not_requested(self):
        db = Database.writable(example_movie_database())
        n = db.add(
            [
                ("B. De Palma", "awarded", "Oscar"),  # already present
                ("x", "p", "y"),
                ("x", "p", "y"),  # duplicate in the batch
            ]
        )
        assert n == 1


class TestCompact:
    def test_compact_round_trips(self, snapshot_path, tmp_path):
        db = Database.edit(snapshot_path)
        out = tmp_path / "compacted.snap"
        try:
            db.retract([("B. De Palma", "awarded", "Oscar")])
            db.add([("S. Connery", "awarded", "BAFTA Awards")])
            live = _canonical(db.query(X1))
            report = db.compact(out)
            assert report.path == out
            assert report.n_triples == db.stats().n_triples
        finally:
            db.close()
        reopened = Database.open(out, cached=False)
        try:
            assert _canonical(reopened.query(X1)) == live
            assert reopened.stats().n_triples == 20
        finally:
            reopened.close()

    def test_compact_requires_writable(self):
        db = Database.in_memory(example_movie_database())
        with pytest.raises(UnsupportedOperationError):
            db.compact("/tmp/never-written.snap")
