"""CRC32C implementation and snapshot checksum-table behavior."""

import gc
import mmap
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SnapshotCorruptError
from repro.graph import GraphDatabase, example_movie_database
from repro.storage.checksum import (
    _LANE,
    _MIN_VECTOR_LANES,
    _crc32c_scalar,
    crc32c,
)
from repro.storage.reader import SnapshotReader
from repro.storage.writer import SnapshotWriter

#: The smallest input the vector path takes.
CUTOFF = _LANE * _MIN_VECTOR_LANES


class TestCrc32c:
    def test_known_vectors(self):
        # RFC 3720 Appendix B.4 / Castagnoli test vectors.
        assert crc32c(b"") == 0x00000000
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c(b"\x00" * 32) == 0x8A9136AA
        assert crc32c(b"\xff" * 32) == 0x62A8AB43
        assert crc32c(bytes(range(32))) == 0x46DD794E

    def test_incremental_matches_one_shot(self):
        data = bytes(range(256)) * 7
        split = len(data) // 3
        partial = crc32c(data[:split])
        assert crc32c(data[split:], partial) == crc32c(data)

    @given(data=st.binary(max_size=512))
    @settings(max_examples=60, deadline=None)
    def test_any_split_is_equivalent(self, data):
        mid = len(data) // 2
        assert crc32c(data[mid:], crc32c(data[:mid])) == crc32c(data)

    @given(
        data=st.binary(min_size=1, max_size=256),
        position=st.integers(0, 255),
        bit=st.integers(0, 7),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_bit_flips_always_change_the_crc(
        self, data, position, bit
    ):
        position %= len(data)
        flipped = bytearray(data)
        flipped[position] ^= 1 << bit
        assert crc32c(bytes(flipped)) != crc32c(data)


def _random_bytes(seed: int, length: int) -> bytes:
    return random.Random(seed).randbytes(length)


class TestVectorPath:
    """The NumPy lane path against the kept scalar loop."""

    @given(
        length=st.one_of(
            st.integers(0, 3 * CUTOFF),
            st.integers(0, 70_000),
            # An odd number of whole lanes plus a 1-63 byte tail.
            st.tuples(st.integers(8, 500), st.integers(1, 63)).map(
                lambda t: (2 * t[0] + 1) * _LANE + t[1]
            ),
        ),
        seed=st.integers(0, 2**32 - 1),
        value=st.integers(0, 2**32 - 1),
    )
    @example(length=CUTOFF - 1, seed=1, value=0)
    @example(length=CUTOFF, seed=2, value=0xFFFFFFFF)
    @example(length=CUTOFF + 1, seed=3, value=0x12345678)
    @example(length=17 * _LANE + 63, seed=4, value=7)
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_loop(self, length, seed, value):
        data = _random_bytes(seed, length)
        assert crc32c(data, value) == _crc32c_scalar(data, value)

    @given(
        length=st.integers(0, 20_000),
        offset=st.integers(0, 15),
        seed=st.integers(0, 2**32 - 1),
        value=st.integers(0, 2**32 - 1),
    )
    @example(length=CUTOFF + 5, offset=1, seed=5, value=0)
    @example(length=33 * _LANE + 7, offset=7, seed=6, value=9)
    @settings(max_examples=40, deadline=None)
    def test_views_at_odd_offsets(self, length, offset, seed, value):
        """Unaligned memoryview and mmap slices checksum like bytes."""
        data = _random_bytes(seed, length)
        want = _crc32c_scalar(data, value)
        padded = bytearray(offset) + data
        with memoryview(padded)[offset:] as view:
            assert crc32c(view, value) == want
        mapped = mmap.mmap(-1, offset + length + 1)
        try:
            mapped[offset:offset + length] = data
            with memoryview(mapped)[offset:offset + length] as view:
                assert crc32c(view, value) == want
        finally:
            mapped.close()  # raises BufferError if a view leaked

    def test_multi_mebibyte_input(self):
        data = _random_bytes(37, (3 << 20) + 37)
        assert crc32c(data, 0xDEADBEEF) == _crc32c_scalar(data, 0xDEADBEEF)
        split = (1 << 20) + 3
        assert crc32c(data[split:], crc32c(data[:split])) == crc32c(data)


def test_reader_releases_the_mapping_after_lazy_verification(tmp_path):
    """``csr()`` checksums a view of the mapping, not a copy; once the
    caller drops the arrays, ``close()`` really unmaps the file."""
    db = GraphDatabase.from_triples(
        (f"s{i}", "p", f"o{i % 97}") for i in range(400)
    )
    path = tmp_path / "wide.snap"
    SnapshotWriter(path).write(db)
    reader = SnapshotReader(path)
    arrays = reader.csr("p", "forward")
    assert arrays[2].nbytes >= CUTOFF  # the vector path checked it
    assert ("p", "forward") in reader._verified
    del arrays
    gc.collect()
    reader.close()
    assert reader._mm.closed


@pytest.fixture
def snapshot(tmp_path):
    path = tmp_path / "movies.snap"
    SnapshotWriter(path).write(example_movie_database())
    return path


class TestSnapshotChecksumTable:
    def test_new_snapshots_are_v4_and_checksummed(self, snapshot):
        with SnapshotReader(snapshot) as reader:
            assert reader.version == 4
            report = reader.verify()
        assert report.ok
        names = [s.section for s in report.sections]
        assert "header" in names
        assert "nodes dictionary" in names
        assert "array table" in names
        for array in ("row_nodes", "indptr", "indices"):
            assert any(
                n.startswith("payload ") and n.endswith(array)
                for n in names
            )

    def test_checksum_table_self_corruption_detected(self, snapshot):
        data = bytearray(snapshot.read_bytes())
        with SnapshotReader(snapshot) as reader:
            table_off = reader._header.checksum_table_off
        data[table_off + 12] ^= 0xFF
        snapshot.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptError) as exc_info:
            SnapshotReader(snapshot)
        assert exc_info.value.section == "checksum table"

    def test_metadata_corruption_fails_at_open(self, snapshot):
        with SnapshotReader(snapshot) as reader:
            ranges = {
                name: (start, length)
                for name, start, length in reader._meta_ranges()
            }
        start, length = ranges["nodes dictionary"]
        data = bytearray(snapshot.read_bytes())
        data[start + length // 2] ^= 0x01
        snapshot.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptError) as exc_info:
            SnapshotReader(snapshot)
        assert exc_info.value.section == "nodes dictionary"

    def test_payload_corruption_is_lazy(self, snapshot, tmp_path):
        """A damaged array opens fine; the first *access* raises, and
        verify() reports exactly the damaged array — for each of the
        three arrays of a label direction."""
        with SnapshotReader(snapshot) as reader:
            label, direction = sorted(reader._blocks)[0]
            ranges = reader._array_ranges(label, direction)
        for section, offset, length, _ in ranges:
            data = bytearray(snapshot.read_bytes())
            data[offset + length // 2] ^= 0xFF
            damaged = tmp_path / "damaged.snap"
            damaged.write_bytes(bytes(data))
            with SnapshotReader(damaged) as reader:  # opens: metadata ok
                report = reader.verify()
                assert not report.ok
                assert report.corrupt_sections() == [section]
                with pytest.raises(SnapshotCorruptError, match="CRC32C"):
                    reader.csr(label, direction)

    def test_verified_payloads_are_cached(self, snapshot):
        with SnapshotReader(snapshot) as reader:
            label, direction = sorted(reader._blocks)[0]
            reader.csr(label, direction)
            before = set(reader._verified)
            assert (label, direction) in before
            reader.csr(label, direction)
            assert set(reader._verified) == before
