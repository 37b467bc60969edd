"""Façade-level preemptable execution: quantum, resume, deadline."""

import pytest

from repro.api import Database, ExecutionProfile, clear_open_cache
from repro.errors import (
    ContinuationError,
    DeadlineExceededError,
    ReproError,
)
from repro.graph import example_movie_database
from repro.sparql import parse_query
from repro.storage import write_snapshot

QUERY = (
    "SELECT * WHERE { ?director directed ?movie . "
    "?director worked_with ?coworker . }"
)
UNION_QUERY = (
    "SELECT * WHERE { { ?director directed ?movie . } "
    "UNION { ?director worked_with ?coworker . } }"
)

STEP = ExecutionProfile(pruning="pruned", time_quantum_ms=0)


@pytest.fixture(scope="module")
def graph():
    return example_movie_database()


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory, graph):
    path = tmp_path_factory.mktemp("preempt") / "movies.snap"
    write_snapshot(graph, path)
    return path


def _drain(db, first):
    """Resume a partial result until completion; count the steps."""
    steps = 0
    result = first
    while not result.complete:
        steps += 1
        assert result.continuation
        result = db.resume(result.continuation)
    return result, steps


def _sessions(graph, snapshot_path, profile):
    clear_open_cache()
    return {
        "in_memory": Database.in_memory(graph, profile=profile),
        "snapshot": Database.open(snapshot_path, profile=profile),
    }


@pytest.mark.parametrize("query", [QUERY, UNION_QUERY])
def test_single_step_matches_uninterrupted_across_backends(
    graph, snapshot_path, query
):
    expected = Database.in_memory(
        graph, profile=ExecutionProfile(pruning="pruned")
    ).query(query).as_set()
    for name, db in _sessions(graph, snapshot_path, STEP).items():
        result, steps = _drain(db, db.query(query))
        assert steps > 0, f"{name}: quantum 0 must suspend"
        assert result.as_set() == expected, name
        assert result.pruning is not None, name


def test_tokens_resume_across_backends(graph, snapshot_path):
    """A token minted on the in-memory session finishes on the
    snapshot session (kernels and backends are trajectory-neutral)."""
    expected = Database.in_memory(graph).query(QUERY).as_set()
    sessions = _sessions(graph, snapshot_path, STEP)
    partial = sessions["in_memory"].query(QUERY)
    assert not partial.complete
    result, _ = _drain(sessions["snapshot"], partial)
    assert result.as_set() == expected


def test_partial_result_refuses_rows():
    db = Database.in_memory(example_movie_database(), profile=STEP)
    partial = db.query(QUERY)
    assert not partial.complete
    assert "partial" in repr(partial)
    for access in (
        lambda: list(partial),
        lambda: len(partial),
        partial.rows,
        partial.as_set,
        lambda: partial.elapsed,
    ):
        with pytest.raises(ReproError, match="suspended"):
            access()


def test_resume_accepts_the_result_set_itself():
    db = Database.in_memory(example_movie_database(), profile=STEP)
    result = db.query(QUERY)
    while not result.complete:
        result = db.resume(result)  # ResultSet, not token string
    assert len(result) > 0


def test_resuming_a_complete_result_raises():
    db = Database.in_memory(example_movie_database())
    result = db.query(QUERY)
    assert result.complete
    with pytest.raises(ContinuationError, match="complete"):
        db.resume(result)


def test_stale_token_rejected_on_other_database():
    movie = Database.in_memory(example_movie_database(), profile=STEP)
    token = movie.query(QUERY).continuation
    other_graph = example_movie_database()
    other_graph.add_edge("imposter", "directed", "nothing")
    other = Database.in_memory(other_graph, profile=STEP)
    with pytest.raises(ContinuationError, match="stale"):
        other.resume(token)


def test_stale_token_rejected_on_changed_solver():
    db = Database.in_memory(example_movie_database(), profile=STEP)
    token = db.query(QUERY).continuation
    from repro.core import SolverOptions

    changed = Database.in_memory(
        example_movie_database(),
        profile=STEP.replace(
            solver=SolverOptions(
                ordering="dynamic", degrade_on_fault=True
            )
        ),
    )
    with pytest.raises(ContinuationError, match="stale"):
        changed.resume(token)


def test_corrupt_token_rejected():
    db = Database.in_memory(example_movie_database(), profile=STEP)
    token = db.query(QUERY).continuation
    flipped = token[:30] + ("A" if token[30] != "A" else "B") + token[31:]
    with pytest.raises(ContinuationError):
        db.resume(flipped)
    with pytest.raises(ContinuationError):
        db.resume("definitely not a token")
    with pytest.raises(ContinuationError, match="truncated|base64|CRC"):
        db.resume(token[: len(token) // 2])


def test_preemption_requires_query_text():
    db = Database.in_memory(example_movie_database(), profile=STEP)
    parsed = parse_query(QUERY)
    with pytest.raises(ReproError, match="text"):
        db.query(parsed)


def test_deadline_bounds_query_ask_simulate():
    profile = ExecutionProfile(pruning="pruned", deadline_ms=1e-4)
    db = Database.in_memory(example_movie_database(), profile=profile)
    with pytest.raises(DeadlineExceededError):
        db.query(QUERY)
    with pytest.raises(DeadlineExceededError):
        db.ask("ASK WHERE { ?d directed ?m . }")
    with pytest.raises(DeadlineExceededError):
        db.simulate(QUERY)


def test_quantum_does_not_leak_into_ask():
    """ask() has no continuation surface — a quantum-only profile must
    run it to completion, not suspend it."""
    db = Database.in_memory(example_movie_database(), profile=STEP)
    assert db.ask("ASK WHERE { ?d directed ?m . }") is True


def test_unbounded_profile_never_suspends(graph):
    db = Database.in_memory(graph)
    result = db.query(QUERY)
    assert result.complete
    assert result.continuation is None
