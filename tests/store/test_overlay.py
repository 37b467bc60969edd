"""Overlay backend unit tests: delta semantics, epochs, lazy rebuild.

The overlay's contract: RDF set semantics on the delta (no-op adds and
retracts, minimal diff against the base), epoch bookkeeping precise
enough for incremental fixpoint maintenance, and a merged read surface
(graph view + triple store) identical to a database that never had a
base/delta split.
"""

import pytest

from repro import Database
from repro.api.backend import InMemoryBackend, SnapshotBackend
from repro.errors import GraphError
from repro.graph import GraphDatabase, Literal, example_movie_database
from repro.storage import write_snapshot
from repro.store import OverlayBackend, TripleStore


def _movie_overlay():
    return OverlayBackend(InMemoryBackend(example_movie_database()))


@pytest.fixture
def overlay():
    return _movie_overlay()


@pytest.fixture
def snapshot_overlay(tmp_path):
    path = tmp_path / "movies.snap"
    write_snapshot(example_movie_database(), path)
    backend = OverlayBackend(SnapshotBackend(path))
    yield backend
    backend.close()


class TestDeltaSemantics:
    def test_add_new_triple(self, overlay):
        before = overlay.n_triples
        assert overlay.add([("X", "directed", "Y")]) == 1
        assert overlay.n_triples == before + 1
        assert ("X", "directed", "Y") in set(overlay.triples())

    def test_add_present_triple_is_noop(self, overlay):
        triple = ("B. De Palma", "awarded", "Oscar")
        before = overlay.n_triples
        assert overlay.add([triple]) == 0
        assert overlay.n_triples == before
        assert overlay.epoch == 0  # nothing changed, no epoch bump

    def test_retract_base_triple(self, overlay):
        triple = ("B. De Palma", "awarded", "Oscar")
        before = overlay.n_triples
        assert overlay.retract([triple]) == 1
        assert overlay.n_triples == before - 1
        assert triple not in set(overlay.triples())

    def test_retract_absent_triple_is_noop(self, overlay):
        assert overlay.retract([("no", "such", "triple")]) == 0
        assert overlay.epoch == 0

    def test_add_then_retract_delta_triple_cancels(self, overlay):
        triple = ("X", "directed", "Y")
        overlay.add([triple])
        overlay.retract([triple])
        assert overlay.graph.n_delta_added == 0
        assert overlay.graph.n_delta_retracted == 0
        assert triple not in set(overlay.triples())

    def test_readd_retracted_base_triple_drops_retraction(self, overlay):
        triple = ("B. De Palma", "awarded", "Oscar")
        overlay.retract([triple])
        overlay.add([triple])
        assert overlay.graph.n_delta_retracted == 0
        assert overlay.graph.n_delta_added == 0
        assert triple in set(overlay.triples())

    def test_literal_subject_rejected(self, overlay):
        with pytest.raises(GraphError):
            overlay.add([(Literal(1), "p", "o")])

    def test_empty_label_rejected(self, overlay):
        with pytest.raises(GraphError):
            overlay.add([("s", "", "o")])

    def test_literal_object_round_trips(self, overlay):
        overlay.add([("Tokyo", "population", Literal(13960000))])
        assert ("Tokyo", "population", Literal(13960000)) in set(
            overlay.triples()
        )


class TestEpochs:
    def test_epoch_bumps_once_per_batch(self, overlay):
        overlay.add([("a", "p", "b"), ("b", "p", "c")])
        assert overlay.epoch == 1
        overlay.add([("c", "p", "d")])
        assert overlay.epoch == 2

    def test_changed_since_reports_touched_labels(self, overlay):
        e0 = overlay.epoch
        overlay.retract([("B. De Palma", "awarded", "Oscar")])
        assert overlay.graph.changed_since(e0) == {"awarded"}
        assert overlay.graph.changed_since(overlay.epoch) == set()

    def test_new_nodes_change_only_their_label(self, overlay):
        e0 = overlay.epoch
        overlay.add([("brand", "new", "nodes")])
        assert overlay.epoch == e0 + 1
        assert overlay.graph.changed_since(e0) == {"new"}

    def test_existing_node_mutation_keeps_changed_since(self, overlay):
        overlay.add([("a", "p", "b")])  # node growth here
        e1 = overlay.epoch
        overlay.add([("a", "q", "b")])  # same nodes, new label
        assert overlay.graph.changed_since(e1) == {"q"}


class TestMergedView:
    """The overlay answers every read exactly as a flat database."""

    def _flat(self, backend):
        return GraphDatabase.from_triples(backend.triples())

    def test_matrices_match_flat_rebuild(self, overlay):
        overlay.add([("X", "directed", "Y"), ("X", "awarded", "Oscar")])
        overlay.retract([("G. Hamilton", "directed", "Goldfinger")])
        flat = self._flat(overlay)
        view = overlay.graph
        assert view.labels == flat.labels
        assert view.n_triples == flat.n_triples
        for label in sorted(flat.labels):
            got = {
                (view.node_name(s), view.node_name(d))
                for s, d in _edges(view.matrices()[label])
            }
            want = {
                (flat.node_name(s), flat.node_name(d))
                for s, d in _edges(flat.matrices()[label])
            }
            assert got == want, label

    def test_fully_retracted_label_disappears(self, overlay):
        sequels = [
            t for t in overlay.triples() if t[1] == "sequel_of"
        ]
        overlay.retract(sequels)
        assert "sequel_of" not in overlay.labels
        assert overlay.graph.matrices().get("sequel_of") is None

    def test_summaries_match_pair(self, overlay):
        """Every merged pair's Eq. (13) summaries are exactly the
        sources and targets of its edges, clean and dirty labels
        alike."""
        overlay.retract([("B. De Palma", "awarded", "Oscar")])
        matrices = overlay.graph.matrices()
        for label in sorted(overlay.labels):
            pair = matrices[label]
            edges = list(_edges(pair))
            assert pair.forward.summary.to_frozenset() == {
                s for s, _ in edges
            }, label
            assert pair.backward.summary.to_frozenset() == {
                o for _, o in edges
            }, label

    def test_clean_labels_served_zero_copy(self, overlay):
        base = overlay.base.graph.matrices()
        overlay.add([("B. De Palma", "awarded", "BAFTA Awards")])
        view = overlay.graph.matrices()
        # 'directed' untouched: identical object from the base.
        assert view.get("directed") is base.get("directed")
        # 'awarded' dirty: rebuilt.
        assert view.get("awarded") is not base.get("awarded")

    def test_node_indices_extend_base(self, overlay):
        base_n = overlay.base.n_nodes
        overlay.add([("fresh", "p", "fresher")])
        view = overlay.graph
        assert view.n_nodes == base_n + 2
        assert view.node_index("fresh") == base_n
        assert view.node_name(base_n + 1) == "fresher"


class TestOverlayTripleStore:
    def test_store_matches_flat_store(self, overlay):
        overlay.add([("X", "directed", "Y")])
        overlay.retract([("T. Young", "awarded", "BAFTA Awards")])
        store = overlay.triple_store()
        flat = TripleStore.from_graph_database(
            GraphDatabase.from_triples(overlay.triples())
        )
        assert store.n_triples == flat.n_triples
        got = {
            (store.nodes.decode(s), store.predicates.decode(p),
             store.nodes.decode(o))
            for s, p, o in store.match_ids(None, None, None)
        }
        want = {
            (flat.nodes.decode(s), flat.predicates.decode(p),
             flat.nodes.decode(o))
            for s, p, o in flat.match_ids(None, None, None)
        }
        assert got == want

    def test_direct_add_is_sealed(self, overlay):
        """The store has no write surface; writes go through the
        backend, which invalidates the touched labels."""
        store = overlay.triple_store()
        with pytest.raises(AttributeError):
            store.add("s", "p", "o")

    def test_mutation_invalidates_only_touched_predicates(self, overlay):
        store = overlay.triple_store()
        store.fill_all()
        filled = set(store.filled_predicates)
        overlay.retract([("B. De Palma", "awarded", "Oscar")])
        awarded = store.predicates.lookup("awarded")
        assert awarded not in store.filled_predicates
        assert store.filled_predicates == filled - {awarded}
        # Refilled on demand, minus the retracted pair.
        count = store.predicate_count(awarded)
        assert count == 2  # 3 awarded edges in Fig. 1(a), one retracted

    def test_clean_predicate_stats_without_fill(self, snapshot_overlay):
        store = snapshot_overlay.triple_store()
        p = store.predicates.lookup("directed")
        assert store.predicate_count(p) == 4
        assert p not in store.filled_predicates  # delegated to the base

    def test_new_label_appears_in_store(self, overlay):
        store = overlay.triple_store()
        overlay.add([("a", "never_seen", "b")])
        p = store.predicates.lookup("never_seen")
        assert p is not None
        assert store.predicate_count(p) == 1


class TestBackendSurface:
    def test_capabilities(self, overlay, snapshot_overlay):
        caps = overlay.capabilities()
        assert caps.writable and not caps.snapshot_backed
        snap_caps = snapshot_overlay.capabilities()
        assert snap_caps.writable and snap_caps.snapshot_backed

    def test_stats_shape(self, overlay):
        overlay.add([("a", "p", "b")])
        overlay.retract([("B. De Palma", "awarded", "Oscar")])
        stats = overlay.stats()
        assert stats["kind"] == "overlay"
        assert stats["base_kind"] == "memory"
        assert stats["epoch"] == 2
        assert stats["delta_adds"] == 1
        assert stats["delta_retracts"] == 1
        assert stats["delta_new_nodes"] == 2
        assert stats["base"]["kind"] == "memory"


#: Arrays a CSR matrix holds: the adopted (or built) CSR and the
#: subject column cached beside it.  Anything else is a dense layout.
_CSR_SLOTS = ("_row_nodes", "_indptr", "_indices", "_entry_rows")
_DENSE_SLOTS = ("_rows", "_packed", "_row_index", "_word_idx", "_bit_shift")


def _csr_bytes(pair):
    return sum(
        getattr(matrix, slot).nbytes
        for matrix in (pair.forward, pair.backward)
        for slot in _CSR_SLOTS
        if getattr(matrix, slot) is not None
    )


@pytest.fixture(scope="module")
def lubm_snapshot(tmp_path_factory):
    from repro.workloads import generate_lubm

    path = tmp_path_factory.mktemp("overlay") / "lubm.snap"
    write_snapshot(generate_lubm(n_universities=1, seed=3), path)
    return path


class TestEditSessionStaysSparse:
    """A fresh ``Database.edit`` session never packs a dense row
    block: neither for the base labels it adopts from the snapshot nor
    for the labels it rebuilds after a write."""

    def test_passes_build_no_dense_block(self, lubm_snapshot):
        from repro.workloads.queries import LUBM_QUERIES

        with Database.edit(lubm_snapshot) as db:
            backend = db.backend
            retracted = next(
                t for t in backend.triples() if t[1] == "takesCourse"
            )
            db.retract([retracted])
            db.add([(retracted[2], "advisor", retracted[0])])
            for mode in ("pruned", "full"):  # cold pruned, then full
                for name in sorted(LUBM_QUERIES):
                    db.query(LUBM_QUERIES[name], mode=mode).rows()

            tiered = backend.base.graph
            adopted = dict(tiered._pairs)
            rebuilt = dict(backend.graph._pairs)
            assert adopted and {"takesCourse", "advisor"} <= set(rebuilt)
            assert backend.triple_store().fill_count > 0
            for label, pair in [*adopted.items(), *rebuilt.items()]:
                for matrix in (pair.forward, pair.backward):
                    for slot in _DENSE_SLOTS:
                        assert getattr(matrix, slot) is None, (label, slot)
            report = backend.residency()
            assert report.resident_bytes == sum(
                _csr_bytes(pair) for pair in adopted.values()
            )


class TestBatchedBlockOnWrite:
    """A write drops the overlay's batched block, as a mutation drops
    a :class:`~repro.graph.graph.Graph`'s; answers after the write
    equal those of a session over the compacted snapshot."""

    def test_write_drops_block_and_answers_match_compacted(
        self, lubm_snapshot, tmp_path
    ):
        from repro import ExecutionProfile
        from repro.workloads.queries import LUBM_QUERIES

        profile = ExecutionProfile(kernel="batched", pruning="pruned")
        query = LUBM_QUERIES["L0"]
        with Database.edit(lubm_snapshot, profile=profile) as db:
            before = db.query(query)
            assert db.backend.stats()["batched_entries"] > 0
            match = before.first()
            db.retract(
                [(match["student"], "advisor", match["professor"])]
            )
            assert db.backend.stats()["batched_entries"] == 0
            live = db.query(query).as_set()
            assert live != before.as_set()
            compacted = tmp_path / "compacted.snap"
            db.compact(compacted)
        with Database.open(
            compacted, profile=profile, cached=False
        ) as folded:
            assert live == folded.query(query).as_set()


class TestNodeGrowthKeepsCleanLabels:
    """A write that only adds nodes leaves every other label's edges
    alone: those labels adopt the base's CSR arrays at the new width
    instead of being rebuilt."""

    def test_requery_after_new_node_rebuilds_no_untouched_label(
        self, lubm_snapshot, tmp_path, monkeypatch
    ):
        from repro.store.overlay import OverlayGraphView
        from repro.workloads.queries import LUBM_QUERIES

        built = []
        build_pair = OverlayGraphView._build_pair

        def spy(view, label):
            built.append(label)
            return build_pair(view, label)

        monkeypatch.setattr(OverlayGraphView, "_build_pair", spy)
        query = LUBM_QUERIES["L0"]
        with Database.edit(lubm_snapshot) as db:
            db.query(query, mode="pruned").rows()
            db.add([("brand:new", "name", "x")])
            assert db.backend.graph.n_new_nodes == 2
            live = db.query(query, mode="pruned").as_set()
            assert not {"advisor", "takesCourse", "teacherOf"} & set(built)
            widened = db.backend.graph.matrices()["advisor"]
            base = db.backend.base.graph.matrices()["advisor"]
            assert widened.n == base.n + 2
            assert widened.forward._indices is base.forward._indices
            compacted = tmp_path / "compacted.snap"
            db.compact(compacted)
        with Database.open(compacted, cached=False) as folded:
            assert live == folded.query(query, mode="pruned").as_set()


def _edges(pair):
    rows = pair.forward.rows
    for s in rows:
        for d in rows[s].iter_ones().tolist():
            yield (s, d)
