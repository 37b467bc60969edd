"""The round-trip invariant (acceptance criterion of the storage PR):

For every workload query, the answers computed over a **reopened
snapshot, labels promoted on first touch,** must be identical to the answers
over the freshly-ingested in-memory database — full evaluation and
pruned evaluation alike — on both the LUBM workload and the Fig. 1
movie database.
"""

import pytest

from repro.api import Database
from repro.graph.database import example_movie_database
from repro.pipeline import PruningPipeline
from repro.storage import write_snapshot
from repro.workloads import LUBM_QUERIES, generate_lubm

#: Queries over the Fig. 1 movie database (the paper's running
#: example): the X1-style join, a constant-anchored star, an
#: OPTIONAL, and a UNION.
MOVIE_QUERIES = {
    "X1": """
        SELECT * WHERE {
            ?director directed ?movie .
            ?director worked_with ?coworker .
        }
    """,
    "star": """
        SELECT * WHERE {
            ?director directed ?movie .
            ?director awarded Oscar .
            ?director born_in ?city .
        }
    """,
    "optional": """
        SELECT * WHERE {
            ?movie genre Action .
            OPTIONAL { ?other sequel_of ?movie . }
        }
    """,
    "union": """
        SELECT * WHERE {
            { ?movie genre Action . } UNION { ?who awarded Oscar . }
        }
    """,
    "chain": """
        SELECT * WHERE {
            ?a prequel_of ?b .
            ?b sequel_of ?c .
            ?c genre ?g .
        }
    """,
}


def _cold_pipeline(db, tmp_path, profile="virtuoso-like"):
    """Snapshot the db, then reopen it: every label starts cold."""
    path = tmp_path / "roundtrip.snap"
    write_snapshot(db, path)
    backend = Database.open(path, cached=False).backend
    return PruningPipeline(profile=profile, backend=backend)


@pytest.fixture(scope="module")
def lubm_db():
    return generate_lubm(n_universities=2, seed=7, spiral_length=8)


class TestMovieRoundTrip:
    @pytest.mark.parametrize("name", sorted(MOVIE_QUERIES))
    def test_answers_identical(self, name, tmp_path):
        db = example_movie_database()
        query = MOVIE_QUERIES[name]
        memory = PruningPipeline(db)
        snapshot = _cold_pipeline(db, tmp_path, profile="rdfox-like")
        assert (
            snapshot.evaluate_full(query).as_set()
            == memory.evaluate_full(query).as_set()
        )
        mem_pruned, _ = memory.evaluate_pruned(query)
        snap_pruned, _ = snapshot.evaluate_pruned(query)
        assert snap_pruned.as_set() == mem_pruned.as_set()


class TestLubmRoundTrip:
    @pytest.mark.parametrize("name", sorted(LUBM_QUERIES))
    def test_answers_identical(self, name, lubm_db, tmp_path):
        query = LUBM_QUERIES[name]
        memory = PruningPipeline(lubm_db)
        snapshot = _cold_pipeline(lubm_db, tmp_path)
        assert (
            snapshot.evaluate_full(query).as_set()
            == memory.evaluate_full(query).as_set()
        )
        mem_pruned, mem_outcome = memory.evaluate_pruned(query)
        snap_pruned, snap_outcome = snapshot.evaluate_pruned(query)
        assert snap_pruned.as_set() == mem_pruned.as_set()
        # the pruning stage itself must agree, not just final answers
        assert (
            snap_outcome.triples_after_pruning
            == mem_outcome.triples_after_pruning
        )

    def test_cold_tier_was_actually_exercised(self, lubm_db, tmp_path):
        pipeline = _cold_pipeline(lubm_db, tmp_path)
        pipeline.evaluate_pruned(LUBM_QUERIES["L0"])
        report = pipeline.db.residency()
        assert report.promotions > 0
        assert report.cold_labels > 0  # attribute labels stay cold
