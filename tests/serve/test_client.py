"""RemoteBackend / Database.connect: local code, remote execution."""

import pytest

from repro.api.backend import GraphBackend
from repro.api.database import Database
from repro.errors import ContinuationError, QueryError, ReproError
from repro.serve import ProtocolError, RemoteBackend
from repro.workloads import LUBM_QUERIES

X1_QUERY = (
    "SELECT * WHERE { ?director directed ?movie . "
    "?director worked_with ?coworker . }"
)


class TestConnect:
    def test_connect_returns_a_database(self, movie_server):
        db = Database.connect(movie_server.url)
        assert isinstance(db, Database)
        assert isinstance(db.backend, RemoteBackend)
        assert db.backend.kind == "remote"

    def test_remote_backend_satisfies_the_protocol(self, movie_server):
        backend = RemoteBackend(movie_server.url)
        assert isinstance(backend, GraphBackend)

    def test_graph_identity_mirrors_the_server(
        self, movie_server, movie_db
    ):
        db = Database.connect(movie_server.url)
        assert db.n_nodes == movie_db.n_nodes
        assert db.n_triples == movie_db.n_triples
        assert db.labels == set(movie_db.labels)

    def test_connect_refuses_a_non_server(self):
        with pytest.raises(ProtocolError):
            Database.connect("http://127.0.0.1:9")  # discard port


class TestRemoteQuery:
    def test_query_matches_local(self, movie_server, movie_db):
        remote = Database.connect(movie_server.url)
        local = Database.in_memory(movie_db)
        for mode in ("pruned", "full"):
            got = remote.query(X1_QUERY, mode=mode)
            want = local.query(X1_QUERY, mode=mode)
            assert got.as_set() == want.as_set()
            assert got.complete is True
            assert sorted(got.variables) == sorted(want.variables)

    def test_transparent_resume_loop(self, lubm_server, small_lubm):
        """Single-step server: the client stitches many 206 slices
        into one complete result, identical to local."""
        remote = Database.connect(lubm_server.url)
        local = Database.in_memory(small_lubm)
        result = remote.query(LUBM_QUERIES["L0"], mode="pruned")
        assert result.complete is True
        assert result.resubmissions >= 3
        assert result.as_set() == local.query(
            LUBM_QUERIES["L0"], mode="pruned"
        ).as_set()

    def test_pruning_summary_travels(self, movie_server):
        result = Database.connect(movie_server.url).query(
            X1_QUERY, mode="pruned"
        )
        assert result.pruning is not None
        assert result.pruning.triples_after <= result.pruning.triples_total

    def test_ask(self, movie_server):
        remote = Database.connect(movie_server.url)
        assert remote.ask(X1_QUERY) is True
        assert remote.ask(
            "SELECT * WHERE { ?x no_such_predicate ?y . }"
        ) is False

    def test_invalid_query_raises_locally_typed_error(self, movie_server):
        remote = Database.connect(movie_server.url)
        with pytest.raises(QueryError):
            remote.query("SELECT WHERE {{{")

    def test_corrupt_token_raises_continuation_error(self, movie_server):
        remote = Database.connect(movie_server.url)
        with pytest.raises(ContinuationError) as excinfo:
            remote.resume("garbage")
        assert excinfo.value.reason == "corrupt"


class TestUnsupportedRemoteOperations:
    def test_local_only_operations_raise(self, movie_server):
        remote = Database.connect(movie_server.url)
        for operation in ("advise", "simulate", "explain"):
            with pytest.raises(ReproError):
                getattr(remote, operation)(X1_QUERY)
        with pytest.raises(ReproError):
            remote.triples()

    def test_residency_is_the_servers_concern(self, movie_server):
        backend = RemoteBackend(movie_server.url)
        assert backend.residency() is None

    def test_stats_and_metrics_round_trip(self, movie_server):
        backend = RemoteBackend(movie_server.url)
        stats = backend.stats()
        assert stats["kind"] == "remote"
        assert stats["server_kind"] == "memory"
        assert backend.health() is True
        metrics = backend.metrics()
        assert isinstance(metrics, dict)
