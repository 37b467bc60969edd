"""The pre-façade entry points are gone: what used to warn now either
fails loudly or is not read at all, and nothing in repro warns."""

import os
import subprocess
import sys
import warnings

import pytest

from repro.errors import GraphError
from repro.graph import example_movie_database
from repro.pipeline import PruningPipeline


def _count_deprecations(calls):
    """Run callables under an always-on filter; count our warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = [call() for call in calls]
    return (
        [w for w in caught if issubclass(w.category, DeprecationWarning)],
        results,
    )


class TestPipelineStoreKwarg:
    """The ``store=`` keyword is gone: a store belongs to its
    backend's view, so plain construction is the only form."""

    def test_plain_construction_is_not_deprecated(self):
        caught, _ = _count_deprecations([
            lambda: PruningPipeline(example_movie_database()),
        ])
        assert not caught


class TestKernelEnvVar:
    def test_env_var_is_not_read(self):
        """``REPRO_KERNEL`` neither selects a kernel nor warns (nor
        raises on an unknown name): the process starts on ``packed``
        and a session picks its kernel through ``ExecutionProfile``."""
        script = (
            "import warnings; warnings.simplefilter('error')\n"
            "from repro import ExecutionProfile\n"
            "from repro.bitvec import active_kernel\n"
            "print(active_kernel(), ExecutionProfile().resolved_kernel())\n"
        )
        for value in ("reference", "no-such-kernel"):
            env = dict(os.environ, REPRO_KERNEL=value)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (*sys.path, env.get("PYTHONPATH", "")) if p
            )
            out = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            assert out.stdout.split() == ["packed", "packed"]
            assert out.stderr == ""


class TestSessionMutationShim:
    """Mutating a GraphDatabase behind an attached session's back is
    the pre-write-API idiom; it now raises and points at
    Database.add/retract."""

    def test_attached_database_raises(self):
        from repro import Database

        db = example_movie_database()
        session = Database.in_memory(db)
        before = session.query("SELECT ?x WHERE { ?x directed ?m . }")
        n_triples = db.n_triples
        for mutate in (db.add_triple, db.add_edge):
            with pytest.raises(GraphError, match=r"Database\.add\(\)"):
                mutate("a", "directed", "b")
        assert db.n_triples == n_triples
        assert not db.has_node("a")
        after = session.query("SELECT ?x WHERE { ?x directed ?m . }")
        assert sorted(map(str, after)) == sorted(map(str, before))

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
