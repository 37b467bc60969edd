"""The `repro.Database` session façade."""

import warnings

import pytest

from repro import Database, ExecutionProfile, GraphBackend, Literal
from repro.api.backend import InMemoryBackend, SnapshotBackend
from repro.api.database import _OPEN_CACHE, clear_open_cache
from repro.errors import ReproError
from repro.graph import example_movie_database
from repro.storage import write_snapshot

X1 = """
    SELECT * WHERE {
        ?director directed ?movie .
        ?director worked_with ?coworker .
    }
"""


@pytest.fixture
def movies():
    return Database.in_memory(example_movie_database())


@pytest.fixture
def movie_snapshot(tmp_path):
    path = tmp_path / "movies.snap"
    write_snapshot(example_movie_database(), path)
    return path


class TestConstructors:
    def test_in_memory_default_is_empty(self):
        db = Database.in_memory()
        assert db.n_triples == 0
        assert len(db.query("SELECT * WHERE { ?s p ?o . }")) == 0

    def test_from_triples(self):
        db = Database.from_triples([
            ("a", "knows", "b"),
            ("b", "knows", "c"),
        ])
        assert db.n_triples == 2
        rows = db.query(
            "SELECT * WHERE { ?x knows ?y . ?y knows ?z . }"
        ).rows()
        assert rows == [{"x": "a", "y": "b", "z": "c"}]

    def test_from_ntriples(self, tmp_path):
        from repro.graph.io import save_ntriples

        path = tmp_path / "m.nt"
        save_ntriples(example_movie_database(), path)
        db = Database.from_ntriples(path)
        assert db.n_triples == 20

    def test_open_snapshot(self, movie_snapshot):
        db = Database.open(movie_snapshot)
        assert db.backend.kind == "snapshot"
        assert db.n_triples == 20
        db.close()

    def test_from_workload_movies(self):
        db = Database.from_workload("movies")
        assert db.n_triples == 20

    def test_from_workload_lubm(self):
        db = Database.from_workload("lubm", scale=1, seed=3,
                                    spiral_length=0)
        assert "advisor" in db.labels
        assert db.backend.kind == "memory"

    def test_from_workload_lubm_cached_snapshot(self, tmp_path):
        db = Database.from_workload(
            "lubm", scale=1, seed=3, cache_dir=tmp_path, spiral_length=0
        )
        assert db.backend.kind == "snapshot"
        assert db.ask("ASK { ?s advisor ?p . }")
        db.close()

    def test_from_workload_dbpedia(self):
        db = Database.from_workload("dbpedia", scale=1, padding=1)
        assert "starring" in db.labels

    def test_from_workload_unknown(self):
        with pytest.raises(ReproError):
            Database.from_workload("wikidata")

    def test_movies_rejects_generator_knobs(self):
        with pytest.raises(ReproError):
            Database.from_workload("movies", seed=42)
        with pytest.raises(ReproError):
            Database.from_workload("movies", scale=3)

    def test_cache_dir_only_for_lubm(self, tmp_path):
        with pytest.raises(ReproError):
            Database.from_workload("dbpedia", cache_dir=tmp_path)

    def test_backends_satisfy_protocol(self, movie_snapshot):
        assert isinstance(InMemoryBackend(), GraphBackend)
        backend = SnapshotBackend(movie_snapshot)
        assert isinstance(backend, GraphBackend)
        backend.close()


class TestQueryModes:
    def test_full_mode(self, movies):
        result = movies.query(X1, mode="full")
        assert result.mode == "full"
        assert result.pruning is None
        assert len(result) == 2

    def test_pruned_mode_carries_summary(self, movies):
        result = movies.query(X1, mode="pruned")
        assert result.mode == "pruned"
        assert result.pruning.triples_total == 20
        assert result.pruning.triples_after == 4
        assert 0.0 < result.pruning.ratio < 1.0
        assert result.as_set() == movies.query(X1, mode="full").as_set()

    def test_auto_mode_records_decision(self, movies):
        result = movies.query(X1, mode="auto")
        assert result.advised
        assert result.mode in ("full", "pruned")
        advice = movies.advise(X1)
        expected = "pruned" if advice.recommended else "full"
        assert result.mode == expected

    def test_profile_mode_is_default(self):
        db = Database.in_memory(
            example_movie_database(),
            profile=ExecutionProfile(pruning="pruned"),
        )
        assert db.query(X1).mode == "pruned"

    def test_unknown_mode_rejected(self, movies):
        with pytest.raises(ReproError):
            movies.query(X1, mode="yolo")

    def test_kernel_pinned_per_query(self, movies):
        from repro.bitvec.kernel import active_kernel

        before = active_kernel()
        pinned = Database.in_memory(
            example_movie_database(),
            profile=ExecutionProfile(kernel="reference"),
        )
        assert pinned.query(X1).as_set() == movies.query(X1).as_set()
        assert active_kernel() == before


class TestResultSet:
    def test_rows_are_decoded_and_sorted(self, movies):
        rows = movies.query(X1, mode="full").rows()
        assert {"director": "B. De Palma", "movie": "Mission: Impossible",
                "coworker": "D. Koepp"} in rows
        assert all(list(row) == sorted(row) for row in rows)

    def test_iteration_is_lazy(self, movies):
        result = movies.query("SELECT * WHERE { ?s directed ?o . }")
        iterator = iter(result)
        first = next(iterator)
        assert isinstance(first, dict)
        assert result.first() == first

    def test_decodes_literals(self, movies):
        rows = movies.query(
            "SELECT * WHERE { ?city population ?n . }", mode="full"
        ).rows()
        assert {"city": "Newark", "n": Literal(277140)} in rows

    def test_variables_and_len(self, movies):
        result = movies.query(X1, mode="full")
        assert result.variables == ("coworker", "director", "movie")
        assert len(result) == 2
        assert bool(result)

    def test_empty_result(self, movies):
        result = movies.query("SELECT * WHERE { ?a zzz ?b . }")
        assert len(result) == 0
        assert result.first() is None
        assert not result


class TestAskExplainSimulate:
    def test_ask(self, movies):
        assert movies.ask("ASK { ?d directed ?m . }")
        assert not movies.ask("ASK { ?a zzz ?b . }")

    def test_explain_mentions_backend_and_plan(self, movies):
        text = movies.explain(X1)
        assert "backend: memory" in text
        assert "pruning:" in text
        assert "profile: virtuoso-like" in text
        assert "BGP" in text

    def test_simulate_candidates(self, movies):
        outcome = movies.simulate(X1)
        [branch] = outcome.branches
        assert branch.candidates["director"] == (
            "B. De Palma", "G. Hamilton",
        )
        assert branch.report.rounds >= 1
        assert "directed" in branch.soi
        assert not outcome.is_empty

    def test_simulate_union_branches(self, movies):
        outcome = movies.simulate(
            "SELECT * WHERE { { ?m genre Action . } UNION "
            "{ ?m genre Drama . } }"
        )
        assert len(outcome.branches) == 2
        assert outcome.candidates("m") == (
            "Goldfinger", "Mission: Impossible",
        )

    def test_simulate_snapshot_promotes_only_touched(
        self, movie_snapshot, tmp_path
    ):
        cold = tmp_path / "cold.snap"
        write_snapshot(example_movie_database(), cold)
        with Database.open(cold, cached=False) as db:
            db.simulate("SELECT * WHERE { ?d directed ?m . }")
            residency = db.stats().residency
            assert residency.promotions == 1

    def test_benchmark_report(self, movies):
        report = movies.benchmark(X1, name="X1")
        assert report.name == "X1"
        assert report.results_equal
        assert report.triples_after_pruning == 4


class TestStats:
    def test_memory_stats(self, movies):
        stats = movies.stats()
        assert stats.backend == "memory"
        assert stats.n_triples == 20
        assert stats.residency is None
        doc = stats.to_dict()
        assert doc["engine"] == "virtuoso-like"
        assert "residency" not in doc

    def test_snapshot_stats(self, movie_snapshot):
        with Database.open(movie_snapshot, cached=False) as db:
            stats = db.stats()
            assert stats.backend == "snapshot"
            assert stats.path == movie_snapshot
            assert stats.residency.on_disk_bytes > 0
            assert stats.to_dict()["residency"]["cold_labels"] >= 0

    def test_stats_survive_session_close(self, movie_snapshot):
        """A stats object outliving its session keeps answering from
        the captured report instead of touching the closed mmap."""
        with Database.open(movie_snapshot, cached=False) as db:
            db.query(X1, mode="pruned")
            stats = db.stats()
        assert stats.residency.promotions > 0
        assert stats.to_dict()["residency"]["promotions"] == (
            stats.residency.promotions
        )


class TestOpenCache:
    def test_open_is_cached(self, movie_snapshot):
        clear_open_cache()
        a = Database.open(movie_snapshot)
        b = Database.open(movie_snapshot)
        assert a.backend is b.backend
        a.close()
        assert not _OPEN_CACHE

    def test_rebuilt_snapshot_invalidates(self, movie_snapshot, tmp_path):
        import os

        clear_open_cache()
        a = Database.open(movie_snapshot)
        os.utime(movie_snapshot, ns=(1, 1))
        b = Database.open(movie_snapshot)
        assert a.backend is not b.backend
        clear_open_cache()

    def test_uncached_open(self, movie_snapshot):
        clear_open_cache()
        a = Database.open(movie_snapshot, cached=False)
        b = Database.open(movie_snapshot, cached=False)
        assert a.backend is not b.backend
        a.close()
        b.close()
        assert not _OPEN_CACHE


class TestFacadeEmitsNoDeprecations:
    """The CI gate: a full façade session emits no
    DeprecationWarning."""

    def test_full_session_clean(self, movie_snapshot):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            db = Database.in_memory(example_movie_database())
            db.query(X1, mode="pruned")
            db.ask("ASK { ?d directed ?m . }")
            db.explain(X1)
            db.simulate(X1)
            db.stats()
            with Database.open(movie_snapshot, cached=False) as snap:
                snap.query(X1, mode="full")
                snap.simulate(X1)
                snap.stats()
