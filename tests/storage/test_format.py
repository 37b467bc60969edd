"""Unit tests for the binary snapshot layout primitives."""

import pytest

from repro.errors import SnapshotError
from repro.graph.database import Literal
from repro.storage.format import (
    BLOCK_ENTRY,
    BlockEntry,
    HEADER,
    Header,
    MAGIC,
    decode_terms,
    encode_term,
    encode_term_section,
    pad8,
)


class TestHeader:
    def _header(self) -> Header:
        return Header(
            n_nodes=10, n_predicates=3, n_triples=20, n_blocks=6,
            nodes_off=96, nodes_len=40, preds_off=136, preds_len=24,
            table_off=160, checksum_table_off=400,
        )

    def test_pack_unpack_roundtrip(self):
        header = self._header()
        assert Header.unpack(header.pack()) == header

    def test_pack_size_matches_struct(self):
        assert len(self._header().pack()) == HEADER.size

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_retired_version_rejected(self, version):
        blob = bytearray(self._header().pack())
        blob[8] = version  # version field, little-endian low byte
        with pytest.raises(SnapshotError, match=(
            f"format v{version} is no longer readable; "
            "rebuild with `repro db build`"
        )):
            Header.unpack(bytes(blob))

    def test_bad_magic_rejected(self):
        blob = bytearray(self._header().pack())
        blob[:8] = b"NOTASNAP"
        with pytest.raises(SnapshotError, match="magic"):
            Header.unpack(bytes(blob))

    def test_future_version_rejected(self):
        blob = bytearray(self._header().pack())
        blob[8] = 99  # version field, little-endian low byte
        with pytest.raises(SnapshotError, match="version"):
            Header.unpack(bytes(blob))

    def test_truncated_rejected(self):
        with pytest.raises(SnapshotError, match="truncated"):
            Header.unpack(MAGIC)


class TestBlockEntry:
    def test_roundtrip(self):
        entry = BlockEntry(
            label_id=7, direction=1, n_rows=100, n_edges=400, offset=4096,
        )
        assert BlockEntry.unpack_from(entry.pack(), 0) == entry

    def test_entry_size(self):
        assert BLOCK_ENTRY.size == 32

    def test_arrays_are_back_to_back(self):
        entry = BlockEntry(0, 0, n_rows=3, n_edges=5, offset=64)
        assert entry.arrays() == [
            ("row_nodes", 64, 3), ("indptr", 88, 4), ("indices", 120, 5),
        ]
        assert entry.nbytes == 8 * (3 + 4 + 5)

    def test_bad_direction_rejected(self):
        blob = bytearray(BlockEntry(0, 0, 1, 1, 8).pack())
        blob[4] = 9  # direction byte
        with pytest.raises(SnapshotError, match="direction"):
            BlockEntry.unpack_from(bytes(blob), 0)


class TestTerms:
    TERMS = [
        "plain",
        "unicode: Bjørk / 北京",
        "",
        Literal("a string literal"),
        Literal(277140),
        Literal(-12),
        Literal(3.5),
        Literal(True),
        Literal(False),
    ]

    def test_roundtrip_all_tags(self):
        blob = b"".join(encode_term(t) for t in self.TERMS)
        decoded = decode_terms(blob, len(self.TERMS))
        assert decoded == self.TERMS
        # literal-ness must survive, not just the lexical form
        assert isinstance(decoded[3], Literal)
        assert decoded[7].value is True and decoded[8].value is False

    def test_section_is_aligned(self):
        section = encode_term_section(self.TERMS)
        assert len(section) % 8 == 0

    def test_unsupported_node_type_rejected(self):
        with pytest.raises(SnapshotError, match="tuple"):
            encode_term(("not", "serializable"))

    def test_unsupported_literal_payload_rejected(self):
        with pytest.raises(SnapshotError, match="literal"):
            encode_term(Literal(object()))

    def test_truncated_terms_rejected(self):
        blob = encode_term("hello")
        with pytest.raises(SnapshotError, match="truncated"):
            decode_terms(blob[:-2], 1)
        with pytest.raises(SnapshotError, match="truncated"):
            decode_terms(blob, 2)


def test_pad8():
    assert [pad8(n) for n in range(9)] == [0, 7, 6, 5, 4, 3, 2, 1, 0]
