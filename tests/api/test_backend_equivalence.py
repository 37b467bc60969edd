"""Backend equivalence: the façade's core guarantee.

Every Fig. 1 movie query and every LUBM query, executed through
`repro.Database`, must produce **byte-identical** answers whether the
session runs on the in-memory backend or on a snapshot backend (with
the cold tier forced on, so lazy promotion is exercised too) — in
full and in pruned mode.
"""

import pytest

from repro import Database, ExecutionProfile
from repro.bitvec import KERNELS
from repro.graph import example_movie_database
from repro.storage import write_snapshot
from repro.workloads import LUBM_QUERIES, generate_lubm

#: Queries over the Fig. 1 movie database (the paper's running
#: example): the X1 join, a constant-anchored star, an OPTIONAL
#: (the X2 shape), a UNION, and a chain.
MOVIE_QUERIES = {
    "X1": """
        SELECT * WHERE {
            ?director directed ?movie .
            ?director worked_with ?coworker .
        }
    """,
    "X2": """
        SELECT * WHERE {
            ?director directed ?movie .
            OPTIONAL { ?director worked_with ?coworker . }
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

MODES = ("full", "pruned")


def _canonical(result):
    """Byte-comparable form: every decoded row, canonically sorted."""
    return sorted(repr(row) for row in result.rows())


@pytest.fixture(scope="module")
def movie_pair(tmp_path_factory):
    """(memory session, cold-snapshot session) over Fig. 1(a)."""
    db = example_movie_database()
    path = tmp_path_factory.mktemp("equiv") / "movies.snap"
    write_snapshot(db, path)
    memory = Database.in_memory(db)
    snapshot = Database.open(path, cached=False)
    yield memory, snapshot
    snapshot.close()


@pytest.fixture(scope="module")
def lubm_pair(tmp_path_factory):
    """(memory session, cold-snapshot session) over LUBM(2)."""
    db = generate_lubm(n_universities=2, seed=7, spiral_length=8)
    path = tmp_path_factory.mktemp("equiv") / "lubm.snap"
    write_snapshot(db, path)
    memory = Database.in_memory(db)
    snapshot = Database.open(path, cached=False)
    yield memory, snapshot
    snapshot.close()


class TestMovieQueries:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(MOVIE_QUERIES))
    def test_identical_answers(self, movie_pair, name, mode):
        memory, snapshot = movie_pair
        query = MOVIE_QUERIES[name]
        mem = memory.query(query, mode=mode)
        snap = snapshot.query(query, mode=mode)
        assert _canonical(mem) == _canonical(snap)
        assert mem.as_set() == snap.as_set()

    @pytest.mark.parametrize("name", sorted(MOVIE_QUERIES))
    def test_auto_mode_agrees(self, movie_pair, name):
        memory, snapshot = movie_pair
        query = MOVIE_QUERIES[name]
        assert _canonical(memory.query(query, mode="auto")) == \
            _canonical(snapshot.query(query, mode="auto"))


class TestLubmQueries:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(LUBM_QUERIES))
    def test_identical_answers(self, lubm_pair, name, mode):
        memory, snapshot = lubm_pair
        query = LUBM_QUERIES[name]
        mem = memory.query(query, mode=mode)
        snap = snapshot.query(query, mode=mode)
        assert _canonical(mem) == _canonical(snap)
        assert mem.as_set() == snap.as_set()

    @pytest.mark.parametrize("name", sorted(LUBM_QUERIES))
    def test_ask_agrees(self, lubm_pair, name):
        memory, snapshot = lubm_pair
        ask = f"ASK {{ {LUBM_QUERIES[name].split('{', 1)[1]}"
        assert memory.ask(ask) == snapshot.ask(ask)

    @pytest.fixture(scope="class")
    def lubm_trios(self, tmp_path_factory):
        """Per kernel: memory, snapshot and edit sessions over LUBM(2)."""
        db = generate_lubm(n_universities=2, seed=7, spiral_length=8)
        path = tmp_path_factory.mktemp("trajectory") / "lubm.snap"
        write_snapshot(db, path)
        trios = {}
        for kernel in ("packed", "batched"):
            profile = ExecutionProfile(kernel=kernel)
            trios[kernel] = {
                "memory": Database.in_memory(db, profile=profile),
                "snapshot": Database.open(
                    path, profile=profile, cached=False
                ),
                "edit": Database.edit(path, profile=profile),
            }
        yield trios
        for sessions in trios.values():
            sessions["snapshot"].close()
            sessions["edit"].close()

    def test_simulation_candidates_agree(self, lubm_trios):
        """Same candidates *and* the same solver trajectory on every
        backend, for every LUBM query under both fast kernels: each
        backend reads Eq. (13) summaries off the pair its mapping
        serves."""

        def counters(report):
            return (
                report.rounds, report.evaluations,
                report.updates, report.bits_removed,
            )

        for kernel, sessions in lubm_trios.items():
            for name in sorted(LUBM_QUERIES):
                runs = {
                    kind: db.simulate(LUBM_QUERIES[name]).branches
                    for kind, db in sessions.items()
                }
                expected = runs.pop("memory")
                for kind, branches in runs.items():
                    where = (kernel, name, kind)
                    assert len(branches) == len(expected), where
                    for mine, theirs in zip(expected, branches):
                        assert theirs.candidates == mine.candidates, where
                        assert counters(theirs.report) == counters(
                            mine.report
                        ), where


class TestKernelMatrix:
    """Every kernel must return byte-identical answers on every
    backend: movie + LUBM queries across packed/batched/reference,
    memory and cold snapshot."""

    def _sessions_for(self, db, path):
        sessions = {}
        for kernel in KERNELS:
            profile = ExecutionProfile(kernel=kernel)
            sessions[kernel] = (
                Database.in_memory(db, profile=profile),
                Database.open(path, profile=profile, cached=False),
            )
        return sessions

    @pytest.fixture(scope="class")
    def movie_sessions(self, tmp_path_factory):
        db = example_movie_database()
        path = tmp_path_factory.mktemp("kernels") / "movies.snap"
        write_snapshot(db, path)
        sessions = self._sessions_for(db, path)
        yield sessions
        for _, snapshot in sessions.values():
            snapshot.close()

    @pytest.fixture(scope="class")
    def lubm_sessions(self, tmp_path_factory):
        db = generate_lubm(n_universities=1, seed=7, spiral_length=8)
        path = tmp_path_factory.mktemp("kernels") / "lubm.snap"
        write_snapshot(db, path)
        sessions = self._sessions_for(db, path)
        yield sessions
        for _, snapshot in sessions.values():
            snapshot.close()

    def _assert_matrix(self, sessions, query):
        expected = None
        for kernel in KERNELS:
            memory, snapshot = sessions[kernel]
            mem = _canonical(memory.query(query, mode="pruned"))
            snap = _canonical(snapshot.query(query, mode="pruned"))
            assert mem == snap, kernel
            if expected is None:
                expected = mem
            else:
                assert mem == expected, kernel

    @pytest.mark.parametrize("name", sorted(MOVIE_QUERIES))
    def test_movie_queries_identical_across_kernels(
        self, movie_sessions, name
    ):
        self._assert_matrix(movie_sessions, MOVIE_QUERIES[name])

    @pytest.mark.parametrize("name", sorted(LUBM_QUERIES))
    def test_lubm_queries_identical_across_kernels(
        self, lubm_sessions, name
    ):
        self._assert_matrix(lubm_sessions, LUBM_QUERIES[name])


class TestOverlayColumn:
    """The PR-9 column of the equivalence matrix: an overlay session
    carrying live deltas (retractions of base triples plus additions,
    including brand-new nodes) must answer every movie + LUBM query
    identically to a read-only session over its own compacted
    snapshot — on every kernel, in every mode."""

    def _deltas(self, db):
        triples = sorted(db.triples(), key=repr)
        retracts = triples[:: max(1, len(triples) // 3)][:3]
        s, p, o = retracts[0]
        adds = [("overlay-new-node", p, o), (s, p, "overlay-new-leaf")]
        return retracts, adds

    def _sessions_for(self, db, tmp, name):
        base_path = tmp / f"{name}.snap"
        write_snapshot(db, base_path)
        retracts, adds = self._deltas(db)
        compacted_path = tmp / f"{name}-compacted.snap"
        editor = Database.edit(base_path)
        editor.retract(retracts)
        editor.add(adds)
        editor.compact(compacted_path)
        editor.close()
        sessions = {}
        for kernel in KERNELS:
            profile = ExecutionProfile(kernel=kernel)
            overlay = Database.edit(base_path, profile=profile)
            overlay.retract(retracts)
            overlay.add(adds)
            compacted = Database.open(
                compacted_path, profile=profile, cached=False
            )
            sessions[kernel] = (overlay, compacted)
        return sessions

    @pytest.fixture(scope="class")
    def movie_overlay_sessions(self, tmp_path_factory):
        sessions = self._sessions_for(
            example_movie_database(),
            tmp_path_factory.mktemp("overlay"),
            "movies",
        )
        yield sessions
        for overlay, compacted in sessions.values():
            overlay.close()
            compacted.close()

    @pytest.fixture(scope="class")
    def lubm_overlay_sessions(self, tmp_path_factory):
        sessions = self._sessions_for(
            generate_lubm(n_universities=1, seed=7, spiral_length=8),
            tmp_path_factory.mktemp("overlay"),
            "lubm",
        )
        yield sessions
        for overlay, compacted in sessions.values():
            overlay.close()
            compacted.close()

    def _assert_column(self, sessions, query, mode):
        expected = None
        for kernel in KERNELS:
            overlay, compacted = sessions[kernel]
            live = _canonical(overlay.query(query, mode=mode))
            folded = _canonical(compacted.query(query, mode=mode))
            assert live == folded, kernel
            if expected is None:
                expected = live
            else:
                assert live == expected, kernel

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(MOVIE_QUERIES))
    def test_movie_overlay_equals_compacted(
        self, movie_overlay_sessions, name, mode
    ):
        self._assert_column(
            movie_overlay_sessions, MOVIE_QUERIES[name], mode
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(LUBM_QUERIES))
    def test_lubm_overlay_equals_compacted(
        self, lubm_overlay_sessions, name, mode
    ):
        self._assert_column(
            lubm_overlay_sessions, LUBM_QUERIES[name], mode
        )


class TestOneIdSpace:
    """Every backend's join store numbers nodes as its graph does, so
    the pruned store can be built from the solver's node indices."""

    @pytest.fixture(scope="class")
    def lubm(self):
        return generate_lubm(n_universities=1, seed=7, spiral_length=8)

    def _session(self, kind, db, tmp):
        if kind == "memory":
            return Database.in_memory(db)
        path = tmp / f"{kind}.snap"
        write_snapshot(db, path)
        if kind != "overlay":
            return Database.open(path, cached=False)
        session = Database.edit(path)
        session.backend.triple_store()  # the delta's nodes are pushed in
        s, p, _ = sorted(db.triples(), key=repr)[0]
        session.add([("aligned-new-node", p, s), (s, p, "aligned-new-leaf")])
        return session

    @pytest.mark.parametrize(
        "kind", ("memory", "snapshot", "overlay")
    )
    def test_store_ids_are_graph_indices(self, lubm, tmp_path, kind):
        session = self._session(kind, lubm, tmp_path)
        try:
            graph = session.backend.graph
            store = session.backend.triple_store()
            assert len(store.nodes) == graph.n_nodes
            for i in range(graph.n_nodes):
                assert store.nodes.decode(i) == graph.node_name(i), i
        finally:
            session.close()
