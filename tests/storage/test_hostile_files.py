"""Forged snapshots: structurally broken CSR arrays under *valid*
CRC32Cs, and headers of retired formats.

A checksum only proves the bytes are the ones the writer (or a forger)
checksummed.  The reader's structural check is what stands between a
hostile file and an ``IndexError`` or a wrong answer: every forged
file here must end in a typed error on the first query, and in a
non-zero ``repro db verify``.
"""

import io

import numpy as np
import pytest

from repro.api import Database, ExecutionProfile, clear_open_cache
from repro.cli import main
from repro.errors import SnapshotCorruptError, SnapshotError
from repro.graph import example_movie_database
from repro.storage import SnapshotReader, write_snapshot
from repro.storage.checksum import crc32c
from repro.storage.format import ARRAYS, pack_checksum_table

QUERY = "SELECT * WHERE { ?director directed ?movie . }"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def snapshot(tmp_path):
    path = tmp_path / "movies.snap"
    write_snapshot(example_movie_database(), path)
    clear_open_cache()
    yield path
    clear_open_cache()


def forge(path, target, mutate):
    """Copy ``path`` to ``target`` after ``mutate(arrays)`` edited the
    CSR arrays in place, re-checksumming every section so the damage
    is invisible to the CRCs."""
    with SnapshotReader(path) as reader:
        ranges = [
            (start, length) for _, start, length in reader._meta_ranges()
        ]
        arrays = {}
        for key in sorted(reader._block_seq, key=reader._block_seq.get):
            for name, (_, start, length, _) in zip(
                ARRAYS, reader._array_ranges(*key)
            ):
                ranges.append((start, length))
                arrays[key + (name,)] = (start, length)
        table_off = reader._header.checksum_table_off
    data = bytearray(path.read_bytes())
    views = {
        key: np.frombuffer(data, dtype="<i8", count=length // 8,
                           offset=start)
        for key, (start, length) in arrays.items()
    }
    mutate(views)
    del views
    crcs = [crc32c(bytes(data[s:s + n])) for s, n in ranges]
    target.write_bytes(bytes(data[:table_off]) + pack_checksum_table(crcs))
    return target


def index_out_of_range(arrays):
    indices = arrays[("directed", "forward", "indices")]
    indices[-1] = example_movie_database().n_nodes


def indptr_not_monotone(arrays):
    indptr = arrays[("directed", "forward", "indptr")]
    indptr[1], indptr[2] = indptr[2], indptr[1]


def row_nodes_unsorted(arrays):
    rows = arrays[("directed", "forward", "row_nodes")]
    rows[0], rows[1] = rows[1], rows[0]


def backward_not_transpose(arrays):
    indptr = arrays[("directed", "backward", "indptr")]
    indices = arrays[("directed", "backward", "indices")]
    # Move the first source of one row down by one: still a sorted,
    # in-range CSR, but no longer the transpose of the forward arrays.
    for first in indptr[:-1]:
        if indices[first] > 0:
            indices[first] -= 1
            return
    raise AssertionError("no movable backward entry")


STRUCTURAL = {
    "index-out-of-range": index_out_of_range,
    "indptr-not-monotone": indptr_not_monotone,
    "row-nodes-unsorted": row_nodes_unsorted,
}


class TestForgedArrays:
    @pytest.mark.parametrize("pruning", ["full", "pruned"])
    @pytest.mark.parametrize(
        "case", sorted(STRUCTURAL) + ["backward-not-transpose"]
    )
    def test_first_query_raises_typed_error(
        self, snapshot, tmp_path, case, pruning
    ):
        mutate = STRUCTURAL.get(case, backward_not_transpose)
        forged = forge(snapshot, tmp_path / f"{case}.snap", mutate)
        db = Database.open(
            forged, profile=ExecutionProfile(pruning=pruning), cached=False
        )
        try:
            with pytest.raises(SnapshotCorruptError) as exc_info:
                db.query(QUERY).as_set()
        finally:
            db.close()
        # Either direction's first read checks the whole label.
        if case in STRUCTURAL:
            detail, section = "directed/forward", "payload directed/forward"
        else:
            detail, section = "not the transpose", "payload directed transpose"
        assert detail in str(exc_info.value)
        assert exc_info.value.section == section

    @pytest.mark.parametrize(
        "case", sorted(STRUCTURAL) + ["backward-not-transpose"]
    )
    def test_verify_exits_nonzero(self, snapshot, tmp_path, case):
        mutate = STRUCTURAL.get(case, backward_not_transpose)
        forged = forge(snapshot, tmp_path / f"{case}.snap", mutate)
        with SnapshotReader(forged) as reader:
            report = reader.verify()
        assert not report.ok
        # The CRCs were recomputed: only a structural section fails.
        assert all(
            "CRC32C" not in section.detail for section in report.sections
        )
        code, _ = run_cli(["db", "verify", str(forged)])
        assert code == 1

    def test_transpose_section_names_the_label(self, snapshot, tmp_path):
        forged = forge(
            snapshot, tmp_path / "t.snap", backward_not_transpose
        )
        with SnapshotReader(forged) as reader:
            report = reader.verify()
        assert report.corrupt_sections() == ["payload directed transpose"]

    def test_pristine_forge_is_clean(self, snapshot, tmp_path):
        """The forger itself changes nothing unless asked."""
        forged = forge(snapshot, tmp_path / "same.snap", lambda _: None)
        assert forged.read_bytes() == snapshot.read_bytes()


class TestRetiredFormats:
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_database_open_raises_typed_error(
        self, snapshot, tmp_path, version
    ):
        data = bytearray(snapshot.read_bytes())
        data[8:12] = version.to_bytes(4, "little")
        old = tmp_path / f"v{version}.snap"
        old.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="no longer readable"):
            Database.open(old, cached=False)
        code, output = run_cli(["db", "info", str(old)])
        assert code == 1
        assert output == ""
