"""Writer/reader round trips over the Fig. 1 movie database and the
LUBM and DBpedia workloads."""

import numpy as np
import pytest

from repro.api import Database
from repro.api.backend import SnapshotBackend
from repro.bitvec.matrix import AdjacencyMatrix
from repro.errors import SnapshotCorruptError, SnapshotError
from repro.graph.database import (
    GraphDatabase,
    Literal,
    example_movie_database,
)
from repro.storage import (
    SnapshotReader,
    TieredGraphView,
    write_snapshot,
)
from repro.storage.checksum import crc32c
from repro.storage.format import (
    BlockEntry,
    Header,
    pack_checksum_table,
)
from repro.store import TripleStore
from repro.workloads import generate_dbpedia, generate_lubm


@pytest.fixture
def movie_snapshot(tmp_path):
    path = tmp_path / "movies.snap"
    write_snapshot(example_movie_database(), path)
    return path


class TestWriter:
    def test_write_is_deterministic(self, tmp_path):
        db = example_movie_database()
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        write_snapshot(db, a)
        write_snapshot(db, b)
        assert a.read_bytes() == b.read_bytes()

    def test_report_counts(self, tmp_path):
        db = example_movie_database()
        report = write_snapshot(db, tmp_path / "m.snap")
        assert report.n_triples == db.n_triples
        assert report.n_nodes == db.n_nodes
        assert report.n_predicates == len(db.labels)
        assert report.file_bytes == (tmp_path / "m.snap").stat().st_size

    def test_empty_database(self, tmp_path):
        path = tmp_path / "empty.snap"
        write_snapshot(GraphDatabase(), path)
        with SnapshotReader(path) as reader:
            assert reader.n_nodes == 0
            assert reader.n_triples == 0
            assert list(reader.iter_triples()) == []

    def test_write_is_atomic(self, tmp_path, monkeypatch):
        """A crash mid-write must not leave a file at the final path
        (the build-once cache gates regeneration on path.exists())."""
        import os

        path = tmp_path / "crash.snap"
        real_replace = os.replace

        def exploding_replace(src, dst):
            raise OSError("simulated crash before publish")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated"):
            write_snapshot(example_movie_database(), path)
        monkeypatch.setattr(os, "replace", real_replace)
        assert not path.exists()
        assert list(tmp_path.glob("*.tmp")) == []  # staging cleaned up
        write_snapshot(example_movie_database(), path)
        assert path.exists()

    def test_overwrite_existing_snapshot(self, tmp_path):
        path = tmp_path / "twice.snap"
        write_snapshot(example_movie_database(), path)
        before = path.read_bytes()
        write_snapshot(example_movie_database(), path)
        assert path.read_bytes() == before


class TestReader:
    def test_header_counts(self, movie_snapshot):
        db = example_movie_database()
        with SnapshotReader(movie_snapshot) as reader:
            assert reader.n_nodes == db.n_nodes
            assert reader.n_triples == db.n_triples
            assert reader.n_predicates == len(db.labels)
            assert sorted(reader.labels()) == sorted(db.labels)

    def test_triples_roundtrip(self, movie_snapshot):
        db = example_movie_database()
        with SnapshotReader(movie_snapshot) as reader:
            assert set(reader.iter_triples()) == set(db.triples())

    def test_literals_survive(self, movie_snapshot):
        with SnapshotReader(movie_snapshot) as reader:
            literals = [
                o for _, p, o in reader.iter_triples()
                if p == "population"
            ]
        assert Literal(277140) in literals
        assert all(isinstance(o, Literal) for o in literals)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="not found"):
            SnapshotReader(tmp_path / "nope.snap")

    def test_garbage_file_raises(self, tmp_path):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"this is not a snapshot at all..")
        with pytest.raises(SnapshotError):
            SnapshotReader(bad)

    def test_truncated_file_raises(self, movie_snapshot, tmp_path):
        cut = tmp_path / "cut.snap"
        cut.write_bytes(movie_snapshot.read_bytes()[:100])
        with pytest.raises(SnapshotError):
            reader = SnapshotReader(cut)
            list(reader.iter_triples())

    def test_info_totals(self, movie_snapshot):
        with SnapshotReader(movie_snapshot) as reader:
            info = reader.info()
            assert info.n_triples == 20
            assert info.version == 4
            assert {i.label for i in info.labels} == set(reader.labels())
            assert sum(i.n_edges for i in info.labels) == 20
            doc = info.to_dict()
            assert doc["n_triples"] == 20
            assert len(doc["labels"]) == info.n_predicates

    def _assert_csr_matches(self, path, direction):
        db = example_movie_database()
        expected_matrix = getattr(db.matrices()["directed"], direction)
        with SnapshotReader(path) as reader:
            loaded = reader.csr("directed", direction)
            for got, want in zip(loaded, expected_matrix._csr()):
                assert got.dtype == np.int64
                assert not got.flags.writeable
                np.testing.assert_array_equal(got, want)
            adopted = AdjacencyMatrix.from_csr(db.n_nodes, *loaded)
            assert adopted.n_edges == expected_matrix.n_edges
            assert adopted.summary == expected_matrix.summary
            del loaded, adopted

    def test_forward_csr_matches_in_memory(self, movie_snapshot):
        self._assert_csr_matches(movie_snapshot, "forward")

    def test_backward_csr_matches_in_memory(self, movie_snapshot):
        self._assert_csr_matches(movie_snapshot, "backward")

    def test_unknown_label_raises(self, movie_snapshot):
        with SnapshotReader(movie_snapshot) as reader:
            with pytest.raises(SnapshotError, match="no forward block"):
                reader.csr("no-such-label", "forward")

    def test_corrupt_row_node_id_raises_snapshot_error(self, tmp_path):
        """Out-of-range row node ids must fail as SnapshotCorruptError,
        not index silently (negative wrap) or as a bare NumPy error.

        The array's CRC32C is recomputed after the edit, so the
        structural range check is what fires; an edit under a stale
        CRC is covered by test_corrupt_payload_fails_crc_on_v4.
        """
        path = tmp_path / "movies.snap"
        write_snapshot(example_movie_database(), path)
        blob = bytes(path.read_bytes())
        with SnapshotReader(path) as reader:
            entry = BlockEntry.unpack_from(blob, reader._header.table_off)
            label = reader.predicate_terms()[entry.label_id]
            _, start, length, slot = reader._array_ranges(
                label, "forward"
            )[0]
            crcs = list(reader._crcs)
            table_off = reader._header.checksum_table_off
            n_nodes = reader.n_nodes
        assert entry.n_rows > 0 and length == 8 * entry.n_rows
        # -1 in the first slot and n_nodes in the last keep the ids
        # strictly increasing, so only the range check can object
        for bad_id, at in ((-1, start), (n_nodes, start + length - 8)):
            corrupted = bytearray(blob[:table_off])
            corrupted[at:at + 8] = np.int64(bad_id).tobytes()
            crcs[slot] = crc32c(bytes(corrupted[start:start + length]))
            bad_path = tmp_path / f"bad{bad_id}.snap"
            bad_path.write_bytes(
                bytes(corrupted) + pack_checksum_table(crcs)
            )
            with SnapshotReader(bad_path) as reader:
                with pytest.raises(
                    SnapshotCorruptError, match="out of range"
                ):
                    reader.csr(label, "forward")

    def test_corrupt_payload_fails_crc_on_v4(self, tmp_path):
        """On current-format files the array checksum catches a flipped
        row node id before the structural check sees it."""
        path = tmp_path / "movies.snap"
        write_snapshot(example_movie_database(), path)
        blob = bytearray(path.read_bytes())
        header = Header.unpack(bytes(blob))
        entry = BlockEntry.unpack_from(bytes(blob), header.table_off)
        assert entry.n_rows > 0
        for bad_id in (-1, header.n_nodes):
            corrupted = bytearray(blob)
            corrupted[entry.offset:entry.offset + 8] = (
                np.int64(bad_id).tobytes()
            )
            bad_path = tmp_path / f"bad{bad_id}.snap"
            bad_path.write_bytes(bytes(corrupted))
            with SnapshotReader(bad_path) as reader:
                label = reader.predicate_terms()[entry.label_id]
                with pytest.raises(SnapshotCorruptError, match="CRC32C"):
                    reader.csr(label, "forward")


class TestRoundTripIdentity:
    """The file is the CSR: reopened arrays equal the in-memory ones,
    are views into the mapping, and a write is a pure function of the
    graph."""

    @pytest.fixture(
        scope="class",
        params=["lubm2", "dbpedia1"],
    )
    def graph(self, request):
        if request.param == "lubm2":
            return generate_lubm(n_universities=2, seed=7)
        return generate_dbpedia(scale=1, seed=7)

    def test_reopened_csr_identical_and_adopted(self, graph, tmp_path):
        path = tmp_path / "graph.snap"
        write_snapshot(graph, path)
        matrices = graph.matrices()
        with SnapshotReader(path) as reader:
            mapping = np.frombuffer(reader._mm, dtype=np.uint8)
            for label in sorted(graph.labels):
                for direction in ("forward", "backward"):
                    loaded = reader.csr(label, direction)
                    expected = getattr(matrices[label], direction)._csr()
                    for got, want in zip(loaded, expected):
                        np.testing.assert_array_equal(got, want)
                        assert np.shares_memory(got, mapping)
            del mapping, loaded

    def test_promoted_matrix_adopts_the_views(self, graph, tmp_path):
        path = tmp_path / "graph.snap"
        write_snapshot(graph, path)
        view = TieredGraphView(path)
        mapping = np.frombuffer(view.reader._mm, dtype=np.uint8)
        label = sorted(graph.labels)[0]
        pair = view.matrices()[label]
        for array in pair.forward._csr() + pair.backward._csr():
            assert np.shares_memory(array, mapping)

    def test_two_writes_byte_identical(self, graph, tmp_path):
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        write_snapshot(graph, a)
        write_snapshot(graph, b)
        assert a.read_bytes() == b.read_bytes()


class TestConstructors:
    """Snapshot sessions open through Database.open; the join-engine
    store is a TripleStore over the backend's view of the same
    reader."""

    def test_database_open_materializes_the_graph(self, movie_snapshot):
        db = example_movie_database()
        view = Database.open(movie_snapshot, cached=False).backend.graph
        loaded = view.to_graph_database()
        assert set(loaded.triples()) == set(db.triples())
        assert loaded.n_literals == db.n_literals
        # node ids are adopted from the snapshot dictionary
        for i in range(db.n_nodes):
            assert view.node_name(i) == db.node_name(i)

    def test_lazy_store_matches_direct_store(self, movie_snapshot):
        db = example_movie_database()
        direct = TripleStore.from_graph_database(db)
        with SnapshotReader(movie_snapshot) as reader:
            loaded = SnapshotBackend(reader).triple_store()
            assert loaded.n_triples == direct.n_triples
            assert set(loaded.triples()) == set(direct.triples())

    def test_triple_store_accepts_open_reader(self, movie_snapshot):
        with SnapshotReader(movie_snapshot) as reader:
            loaded = SnapshotBackend(reader).triple_store()
            assert loaded.n_triples == 20

    def test_store_lookups_work_after_load(self, movie_snapshot):
        store = Database.open(movie_snapshot, cached=False).backend \
            .triple_store()
        assert store.contains("B. De Palma", "directed",
                              "Mission: Impossible")
        assert not store.contains("B. De Palma", "directed", "Goldfinger")
