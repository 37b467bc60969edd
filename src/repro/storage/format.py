"""Binary layout of the on-disk snapshot format (``repro-snap`` v4).

A snapshot is a single file holding a dictionary-encoded graph
database in an mmap-friendly layout.  Every label's adjacency is
stored the way the solver holds it (:mod:`repro.bitvec.matrix`):
sorted CSR per label and direction, three little-endian ``int64``
arrays each —

* ``row_nodes`` — the nodes owning a non-empty row, ascending (the
  set bits of the Eq. (13) summary vector);
* ``indptr``    — ``n_rows + 1`` offsets into ``indices``, strictly
  increasing from 0 (no empty rows);
* ``indices``   — the successors of ``row_nodes[p]`` are
  ``indices[indptr[p]:indptr[p + 1]]``, ascending.

A reader adopts ``np.frombuffer`` views over the mapping: opening a
label costs a CRC and a structural check, never a decode or a copy.

File layout (all sections and arrays 8-byte aligned)::

    header | nodes dictionary | predicates dictionary | array table
           | arrays | checksum table

Integers are little-endian.  The header is::

    magic     8s   b"REPROSNP"
    version   u32  4
    flags     u32  reserved, 0
    n_nodes, n_predicates, n_triples, n_blocks          4 x u64
    nodes_off, nodes_len, preds_off, preds_len          4 x u64
    table_off, checksum_table_off                       2 x u64

The array table has one 32-byte entry per (label, direction), forward
before backward, labels in predicate-id order::

    label_id  u32   index into the predicate dictionary
    direction u8    0 = forward, 1 = backward
    reserved  3x
    n_rows, n_edges, offset                             3 x u64

``offset`` is where ``row_nodes`` starts; ``indptr`` and ``indices``
follow it back to back (:meth:`BlockEntry.arrays`).

The trailing checksum table covers every byte of the file::

    magic     4s   b"CRCS"
    algorithm u16  1 = CRC32C (Castagnoli)
    reserved  u16  0
    n_entries u64
    crcs      n_entries x u32    header, nodes dictionary, predicates
                                 dictionary, array table, then
                                 row_nodes, indptr, indices of each
                                 entry in array-table order
    table_crc u32  CRC32C of the table bytes above

Readers verify the metadata sections eagerly at open and a label's
three arrays on its first access; a mismatch raises
:class:`~repro.errors.SnapshotCorruptError`.  Files of the retired
formats v1-v3 (dense and gap-encoded payloads, shard files) are
refused with a :class:`~repro.errors.SnapshotError` naming the
rebuild command.

Terms are serialized as a tag byte, a ``u32`` byte length, and a
UTF-8 payload.  The tag records whether the term is a plain node name
or a :class:`~repro.graph.database.Literal` (and the literal's Python
type), so literal-ness survives the round trip without a separate
bitmap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Hashable, List, Tuple

from repro.errors import SnapshotCorruptError, SnapshotError
from repro.graph.database import Literal
from repro.storage.checksum import crc32c

MAGIC = b"REPROSNP"
VERSION = 4
#: Versions this build recognizes but no longer reads.
RETIRED_VERSIONS = (1, 2, 3)

HEADER = struct.Struct("<8sII10Q")
BLOCK_ENTRY = struct.Struct("<IB3xQQQ")

CHECKSUM_MAGIC = b"CRCS"
CHECKSUM_ALGO_CRC32C = 1
CHECKSUM_HEADER = struct.Struct("<4sHHQ")

DIRECTION_FORWARD = 0
DIRECTION_BACKWARD = 1
DIRECTIONS = ("forward", "backward")

#: The CSR arrays of one (label, direction), in file order.
ARRAYS = ("row_nodes", "indptr", "indices")

_TAG_STR = 0
_TAG_LIT_STR = 1
_TAG_LIT_INT = 2
_TAG_LIT_FLOAT = 3
_TAG_LIT_BOOL = 4

_ALIGN = 8


def pad8(n: int) -> int:
    """Bytes needed to round ``n`` up to the next 8-byte boundary."""
    return (-n) % _ALIGN


@dataclass(frozen=True)
class Header:
    """Decoded fixed header of a snapshot file."""

    n_nodes: int
    n_predicates: int
    n_triples: int
    n_blocks: int
    nodes_off: int
    nodes_len: int
    preds_off: int
    preds_len: int
    table_off: int
    checksum_table_off: int

    size = HEADER.size

    def pack(self) -> bytes:
        return HEADER.pack(
            MAGIC, VERSION, 0,
            self.n_nodes, self.n_predicates, self.n_triples, self.n_blocks,
            self.nodes_off, self.nodes_len, self.preds_off, self.preds_len,
            self.table_off, self.checksum_table_off,
        )

    @classmethod
    def unpack(cls, buffer) -> "Header":
        if len(buffer) < HEADER.size:
            raise SnapshotError(
                f"truncated snapshot: {len(buffer)} bytes, "
                f"header needs {HEADER.size}"
            )
        magic, version = struct.unpack_from("<8sI", buffer, 0)
        if magic != MAGIC:
            raise SnapshotError(
                f"not a repro snapshot (bad magic {magic!r})"
            )
        if version in RETIRED_VERSIONS:
            raise SnapshotError(
                f"snapshot format v{version} is no longer readable; "
                "rebuild with `repro db build`"
            )
        if version != VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {version} "
                f"(this build reads version {VERSION})"
            )
        (_magic, _version, _flags, n_nodes, n_predicates, n_triples,
         n_blocks, nodes_off, nodes_len, preds_off, preds_len,
         table_off, checksum_table_off) = HEADER.unpack_from(buffer, 0)
        return cls(
            n_nodes=n_nodes, n_predicates=n_predicates,
            n_triples=n_triples, n_blocks=n_blocks,
            nodes_off=nodes_off, nodes_len=nodes_len,
            preds_off=preds_off, preds_len=preds_len,
            table_off=table_off, checksum_table_off=checksum_table_off,
        )


@dataclass(frozen=True)
class BlockEntry:
    """One array-table row: where one (label, direction) CSR lives."""

    label_id: int
    direction: int   # DIRECTION_FORWARD / DIRECTION_BACKWARD
    n_rows: int
    n_edges: int
    offset: int

    @property
    def nbytes(self) -> int:
        """Bytes of the three arrays together."""
        return 8 * (2 * self.n_rows + 1 + self.n_edges)

    def arrays(self) -> List[Tuple[str, int, int]]:
        """``(name, offset, item count)`` of ``row_nodes``, ``indptr``
        and ``indices``, in file order."""
        counts = (self.n_rows, self.n_rows + 1, self.n_edges)
        out, offset = [], self.offset
        for name, count in zip(ARRAYS, counts):
            out.append((name, offset, count))
            offset += 8 * count
        return out

    def pack(self) -> bytes:
        return BLOCK_ENTRY.pack(
            self.label_id, self.direction,
            self.n_rows, self.n_edges, self.offset,
        )

    @classmethod
    def unpack_from(cls, buffer, offset: int) -> "BlockEntry":
        (label_id, direction, n_rows, n_edges,
         array_off) = BLOCK_ENTRY.unpack_from(buffer, offset)
        if direction not in (DIRECTION_FORWARD, DIRECTION_BACKWARD):
            raise SnapshotError(f"bad block direction {direction}")
        return cls(
            label_id=label_id, direction=direction,
            n_rows=n_rows, n_edges=n_edges, offset=array_off,
        )


# -- term (de)serialization -------------------------------------------------


def encode_term(term: Hashable) -> bytes:
    """Serialize one node/predicate term (tag, u32 length, UTF-8)."""
    if isinstance(term, Literal):
        value = term.value
        if isinstance(value, bool):      # before int: bool is an int
            tag, payload = _TAG_LIT_BOOL, (b"1" if value else b"0")
        elif isinstance(value, int):
            tag, payload = _TAG_LIT_INT, str(value).encode("utf-8")
        elif isinstance(value, float):
            tag, payload = _TAG_LIT_FLOAT, repr(value).encode("utf-8")
        elif isinstance(value, str):
            tag, payload = _TAG_LIT_STR, value.encode("utf-8")
        else:
            raise SnapshotError(
                "cannot serialize literal of type "
                f"{type(value).__name__}: {value!r}"
            )
    elif isinstance(term, str):
        tag, payload = _TAG_STR, term.encode("utf-8")
    else:
        raise SnapshotError(
            "cannot serialize node name of type "
            f"{type(term).__name__}: {term!r} (use str or Literal)"
        )
    return struct.pack("<BI", tag, len(payload)) + payload


def decode_terms(buffer: bytes, count: int) -> List[Hashable]:
    """Inverse of a sequence of :func:`encode_term` calls."""
    terms: List[Hashable] = []
    offset = 0
    for _ in range(count):
        if offset + 5 > len(buffer):
            raise SnapshotError("truncated term dictionary")
        tag, length = struct.unpack_from("<BI", buffer, offset)
        offset += 5
        if offset + length > len(buffer):
            raise SnapshotError("truncated term dictionary payload")
        payload = bytes(buffer[offset:offset + length])
        offset += length
        text = payload.decode("utf-8")
        if tag == _TAG_STR:
            terms.append(text)
        elif tag == _TAG_LIT_STR:
            terms.append(Literal(text))
        elif tag == _TAG_LIT_INT:
            terms.append(Literal(int(text)))
        elif tag == _TAG_LIT_FLOAT:
            terms.append(Literal(float(text)))
        elif tag == _TAG_LIT_BOOL:
            terms.append(Literal(payload == b"1"))
        else:
            raise SnapshotError(f"unknown term tag {tag}")
    return terms


def encode_term_section(terms) -> bytes:
    """Serialize a whole dictionary section (padded to 8 bytes)."""
    body = b"".join(encode_term(t) for t in terms)
    return body + b"\x00" * pad8(len(body))


def pack_block_table(entries: List[BlockEntry]) -> bytes:
    body = b"".join(entry.pack() for entry in entries)
    return body + b"\x00" * pad8(len(body))


# -- checksum table ----------------------------------------------------


def pack_checksum_table(crcs: List[int]) -> bytes:
    """Serialize the checksum table (self-checksummed, unpadded —
    the table sits at end of file, so every byte of the file ends up
    covered by exactly one CRC)."""
    body = CHECKSUM_HEADER.pack(
        CHECKSUM_MAGIC, CHECKSUM_ALGO_CRC32C, 0, len(crcs)
    )
    body += struct.pack(f"<{len(crcs)}I", *crcs)
    return body + struct.pack("<I", crc32c(body))


def unpack_checksum_table(buffer, offset: int) -> List[int]:
    """Parse and self-verify a checksum table; the per-section CRCs.

    Raises :class:`SnapshotCorruptError` when the table itself is
    truncated or fails its own CRC — a corrupt table must not look
    like a clean bill of health for the sections it covers.
    """
    end = offset + CHECKSUM_HEADER.size
    if end > len(buffer):
        raise SnapshotCorruptError(
            "checksum table truncated", section="checksum table"
        )
    magic, algorithm, _reserved, n_entries = CHECKSUM_HEADER.unpack_from(
        buffer, offset
    )
    if magic != CHECKSUM_MAGIC:
        raise SnapshotCorruptError(
            f"bad checksum table magic {magic!r}",
            section="checksum table",
        )
    if algorithm != CHECKSUM_ALGO_CRC32C:
        raise SnapshotCorruptError(
            f"unknown checksum algorithm {algorithm}",
            section="checksum table",
        )
    body_end = end + 4 * n_entries
    if body_end + 4 > len(buffer):
        raise SnapshotCorruptError(
            "checksum table truncated", section="checksum table"
        )
    stored = struct.unpack_from("<I", buffer, body_end)[0]
    if crc32c(buffer[offset:body_end]) != stored:
        raise SnapshotCorruptError(
            "checksum table failed its own CRC32C",
            section="checksum table",
        )
    return list(struct.unpack_from(f"<{n_entries}I", buffer, end))
