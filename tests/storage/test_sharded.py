"""The v3 sharded snapshot layout.

Sharding splits the block payloads across ``<snapshot>.shard<i>``
files keyed by label hash, each with its own checksum table, while
the manifest keeps the four metadata sections.  Everything a
single-file snapshot promises must hold shard-for-shard: byte-exact
roundtrips, per-section integrity verification that localizes
corruption to one shard payload, fast failure on missing shard
files, and query answers identical to the in-memory database.
"""

import io

import pytest

from repro.api.database import Database, clear_open_cache
from repro.errors import SnapshotError
from repro.graph import example_movie_database
from repro.storage.format import (
    MAX_SHARDS,
    shard_of_label,
    shard_path,
)
from repro.storage.reader import SnapshotReader
from repro.storage.writer import SnapshotWriter, write_snapshot


@pytest.fixture
def movie_db():
    return example_movie_database()


def _build(tmp_path, db, shards, name="movies.snap"):
    path = tmp_path / name
    report = write_snapshot(db, path, shards=shards)
    return path, report


class TestShardedWrite:
    def test_report_and_files(self, tmp_path, movie_db):
        path, report = _build(tmp_path, movie_db, shards=3)
        assert report.n_shards == 3
        assert sorted(report.shard_bytes) == [0, 1, 2]
        for index in range(3):
            shard = shard_path(path, index)
            assert shard.exists()
            assert shard.stat().st_size == report.shard_bytes[index]
        # file_bytes totals the manifest plus every shard file.
        assert report.file_bytes == path.stat().st_size + sum(
            report.shard_bytes.values()
        )

    def test_single_shard_layout_works(self, tmp_path, movie_db):
        path, report = _build(tmp_path, movie_db, shards=1)
        assert report.n_shards == 1
        with SnapshotReader(path) as reader:
            assert reader.n_shards == 1
            assert reader.verify().ok

    def test_shard_count_bounds(self, tmp_path, movie_db):
        with pytest.raises(SnapshotError):
            SnapshotWriter(tmp_path / "x.snap", shards=-1)
        with pytest.raises(SnapshotError):
            SnapshotWriter(tmp_path / "x.snap", shards=MAX_SHARDS + 1)

    def test_v1_cannot_shard(self, tmp_path):
        with pytest.raises(SnapshotError):
            SnapshotWriter(tmp_path / "x.snap", version=1, shards=2)

    def test_write_is_deterministic(self, tmp_path, movie_db):
        path_a, _ = _build(tmp_path, movie_db, shards=3, name="a.snap")
        path_b, _ = _build(tmp_path, movie_db, shards=3, name="b.snap")
        assert path_a.read_bytes() == path_b.read_bytes()
        for index in range(3):
            assert (
                shard_path(path_a, index).read_bytes()
                == shard_path(path_b, index).read_bytes()
            )


class TestShardAssignment:
    def test_stable_and_in_range(self):
        for label in ("advisor", "worksFor", "name", "directed"):
            first = shard_of_label(label, 5)
            assert 0 <= first < 5
            assert shard_of_label(label, 5) == first

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(SnapshotError):
            shard_of_label("a", 0)

    def test_both_directions_share_a_shard(self, tmp_path, movie_db):
        """Block entries key on (label, direction); both directions of
        a label must land in the same shard so loading the label never
        touches a second file."""
        path, _ = _build(tmp_path, movie_db, shards=4)
        with SnapshotReader(path) as reader:
            by_label = {}
            for (label, _direction), entry in reader._blocks.items():
                by_label.setdefault(label, set()).add(entry.shard)
            assert by_label  # movie db has labels
            for shards in by_label.values():
                assert len(shards) == 1


class TestShardedRead:
    def test_roundtrip_triples_identical(self, tmp_path, movie_db):
        single, _ = _build(tmp_path, movie_db, shards=0, name="one.snap")
        sharded, _ = _build(tmp_path, movie_db, shards=4, name="many.snap")
        with SnapshotReader(single) as a, SnapshotReader(sharded) as b:
            assert sorted(a.iter_triples()) == sorted(b.iter_triples())
            assert b.info().n_shards == 4
            assert b.info().to_dict()["n_shards"] == 4

    def test_query_answers_match_in_memory(self, tmp_path, movie_db):
        path, _ = _build(tmp_path, movie_db, shards=4)
        query = (
            "SELECT * WHERE { ?d directed ?m . ?a actedIn ?m . }"
        )
        expected = sorted(
            map(tuple, Database.in_memory(movie_db).query(query))
        )
        db = Database.open(path, cached=False, profile="virtuoso-like")
        try:
            assert sorted(map(tuple, db.query(query))) == expected
        finally:
            db.close()

    def test_verify_all_sections_ok(self, tmp_path, movie_db):
        path, _ = _build(tmp_path, movie_db, shards=4)
        with SnapshotReader(path) as reader:
            report = reader.verify()
        assert report.ok
        assert report.checksummed
        payloads = [
            s for s in report.sections if s.section.startswith("payload ")
        ]
        assert payloads  # every block checked, now against shard CRCs

    def test_payload_corruption_localized(self, tmp_path, movie_db):
        path, report = _build(tmp_path, movie_db, shards=4)
        victim = next(
            i for i, size in report.shard_bytes.items() if size > 64
        )
        shard = shard_path(path, victim)
        blob = bytearray(shard.read_bytes())
        blob[40] ^= 0xFF  # inside the first payload, past the header
        shard.write_bytes(bytes(blob))
        with SnapshotReader(path) as reader:
            verdict = reader.verify()
        assert not verdict.ok
        corrupt = verdict.corrupt_sections()
        assert all(name.startswith("payload ") for name in corrupt)
        # Only blocks of the corrupted shard are implicated.
        with SnapshotReader(path) as reader:
            shards_of = {
                f"payload {label}/{direction}": entry.shard
                for (label, direction), entry in reader._blocks.items()
            }
        assert {shards_of[name] for name in corrupt} == {victim}

    def test_missing_shard_fails_open(self, tmp_path, movie_db):
        path, _ = _build(tmp_path, movie_db, shards=3)
        shard_path(path, 1).unlink()
        with pytest.raises(SnapshotError, match="shard"):
            SnapshotReader(path)

    def test_missing_shard_is_corrupt_not_fatal_in_verify(
        self, tmp_path, movie_db
    ):
        """`db verify` must report, not crash, when a shard vanished
        after open."""
        path, _ = _build(tmp_path, movie_db, shards=3)
        with SnapshotReader(path) as reader:
            shard_path(path, 1).unlink()
            report = reader.verify()
        assert not report.ok


class TestShardedCli:
    def test_build_info_verify_query(self, tmp_path, movie_db):
        from repro.cli import main
        from repro.graph.io import save_ntriples

        nt = tmp_path / "movies.nt"
        save_ntriples(movie_db, nt)
        snap = tmp_path / "movies.snap"
        out = io.StringIO()
        assert main(
            ["db", "build", str(nt), "-o", str(snap), "--shards", "3"],
            out=out,
        ) == 0
        assert "across 3 shards" in out.getvalue()

        out = io.StringIO()
        assert main(["db", "info", str(snap)], out=out) == 0
        assert "3 payload shards" in out.getvalue()

        out = io.StringIO()
        assert main(["db", "verify", str(snap)], out=out) == 0

        out = io.StringIO()
        code = main(
            [
                "db", "query", str(snap),
                "SELECT * WHERE { ?d directed ?m . }",
                "--mode", "pruned",
            ],
            out=out,
        )
        clear_open_cache()
        assert code == 0
        assert "solutions" in out.getvalue()
