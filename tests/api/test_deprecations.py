"""The legacy entry points still work — and warn exactly once."""

import warnings

import pytest

from repro._deprecation import (
    deprecated_call,
    reset_deprecation_registry,
)
from repro.graph import example_movie_database
from repro.pipeline import PruningPipeline


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_deprecation_registry()
    yield
    reset_deprecation_registry()


def _count_deprecations(calls):
    """Run callables under an always-on filter; count our warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = [call() for call in calls]
    return (
        [w for w in caught if issubclass(w.category, DeprecationWarning)],
        results,
    )


class TestWarnOnceRegistry:
    def test_second_call_is_silent(self):
        caught, _ = _count_deprecations([
            lambda: deprecated_call("k", "gone"),
            lambda: deprecated_call("k", "gone"),
        ])
        assert len(caught) == 1

    def test_distinct_keys_warn_separately(self):
        caught, _ = _count_deprecations([
            lambda: deprecated_call("k1", "gone"),
            lambda: deprecated_call("k2", "gone"),
        ])
        assert len(caught) == 2


class TestPipelineStoreKwarg:
    """The ``store=`` keyword is gone: a store belongs to its
    backend's view, so plain construction is the only form."""

    def test_plain_construction_is_not_deprecated(self):
        caught, _ = _count_deprecations([
            lambda: PruningPipeline(example_movie_database()),
        ])
        assert not caught


class TestKernelEnvVar:
    def test_env_resolution_warns_once(self, monkeypatch):
        from repro.api import ExecutionProfile

        monkeypatch.setenv("REPRO_KERNEL", "reference")
        caught, _ = _count_deprecations([
            lambda: ExecutionProfile().resolved_kernel(),
            lambda: ExecutionProfile().resolved_kernel(),
        ])
        assert len(caught) == 1
        assert "REPRO_KERNEL" in str(caught[0].message)


class TestSessionMutationShim:
    """Mutating a GraphDatabase behind an attached session's back is
    the pre-write-API idiom: it still works (the graph accepts the
    edge) but warns once, pointing at Database.add/retract."""

    def test_attached_database_warns_once(self):
        from repro import Database

        db = example_movie_database()
        session = Database.in_memory(db)
        caught, _ = _count_deprecations([
            lambda: db.add_triple("a", "p", "b"),
            lambda: db.add_triple("a", "p", "c"),
        ])
        assert len(caught) == 1
        message = str(caught[0].message)
        assert "Database.add" in message
        assert "Database.writable" in message
        del session

    def test_standalone_database_is_silent(self):
        db = example_movie_database()
        caught, _ = _count_deprecations([
            lambda: db.add_triple("a", "p", "b"),
        ])
        assert caught == []

    def test_write_api_is_silent(self):
        from repro import Database

        session = Database.writable(example_movie_database())
        caught, _ = _count_deprecations([
            lambda: session.add([("a", "p", "b")]),
            lambda: session.retract([("a", "p", "b")]),
        ])
        assert caught == []
