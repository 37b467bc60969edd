"""Binary layout of the on-disk snapshot format (``repro-snap`` v1-v3).

A snapshot is a single file holding a dictionary-encoded graph
database in an mmap-friendly layout: a fixed header, the two term
dictionaries (nodes and predicates), and one payload *block* per
(label, direction) adjacency matrix.  Every block is stored in one of
two encodings, chosen per label by the writer's density heuristic:

* ``dense``  — the packed ``(n_rows, n_words)`` ``uint64`` row block
  of :class:`~repro.bitvec.matrix.AdjacencyMatrix`, preceded by the
  ``int64`` node ids of its rows.  A reader can wrap these bytes into
  NumPy views with zero copies, which is what makes dense labels
  "hot": they are solver-ready the moment the file is open.
* ``gap``    — per-row gap-length runs (:mod:`repro.bitvec.gap`):
  row node ids, a ``uint64`` offsets array (in run elements), and the
  concatenated ``uint32`` runs.  Gap labels are "cold": they cost a
  decode (:meth:`GapEncodedMatrix.to_adjacency`) on first touch but
  occupy only their compressed bytes until then — the paper's
  35 GB vs 23 GB residency discussion (Sect. 3.3).

File layout (all sections and payloads 8-byte aligned)::

    header | nodes dictionary | predicates dictionary | block table | payloads

Integers are little-endian.  The v1 header is::

    magic     8s   b"REPROSNP"
    version   u32  1
    flags     u32  reserved, 0
    n_nodes, n_predicates, n_triples, n_blocks          4 x u64
    nodes_off, nodes_len, preds_off, preds_len          4 x u64
    block_table_off                                     u64

Format **v2** (the current writer output) appends one field to the
header — ``checksum_table_off`` (u64) — and one trailing section: a
per-section CRC32C checksum table covering every byte of the file::

    header | nodes | predicates | block table | payloads | checksum table

The table is::

    magic     4s   b"CRCS"
    algorithm u16  1 = CRC32C (Castagnoli)
    reserved  u16  0
    n_entries u64
    crcs      n_entries x u32    header, nodes dictionary, predicates
                                 dictionary, block table, then one per
                                 payload in block-table order
    table_crc u32  CRC32C of the table bytes above

v2 readers verify the metadata sections eagerly at open and each
payload lazily on first access; a mismatch raises
:class:`~repro.errors.SnapshotCorruptError`.  v1 files carry no table
(``flags`` bit 0 clear) and stay readable, unchecksummed.

Format **v3** (written on request by ``repro db build --shards N``)
splits the block payloads across ``N`` *shard files* keyed by label
hash — ``<snapshot>.shard0`` .. ``<snapshot>.shardN-1`` next to the
manifest — each with its own checksum table, so ``repro db verify``
localizes payload corruption to one shard.  The v3 header appends
``n_shards`` (u64) after ``checksum_table_off`` and sets ``flags`` bit 1
(:data:`FLAG_SHARDED`).  The manifest keeps the metadata sections
(header, dictionaries, block table) and a checksum table covering
*only* those four sections; each shard file carries its **own**
trailing checksum table covering the shard header and every payload
it holds, so a single shard verifies in isolation.  A shard file is::

    shard header | payloads (8-aligned) | checksum table

with a 32-byte shard header::

    magic       8s   b"REPROSHD"
    version     u32  3
    shard_index u32  which shard this file is
    n_payloads  u64  blocks stored here
    table_off   u64  absolute offset of the shard's checksum table

Both directions of a label land in the same shard
(:func:`shard_of_label` — a CRC32C of the label name modulo
``n_shards``, stable across processes and runs), preserving the
per-(label, direction) block-table boundaries as natural shard
boundaries.  A v3 manifest with ``n_shards=0`` is a plain single-file
snapshot, identical in layout to v2 apart from the longer header.

Each block-table entry is 40 bytes::

    label_id  u32   index into the predicate dictionary
    direction u8    0 = forward, 1 = backward
    encoding  u8    0 = dense, 1 = gap
    shard     u16   shard file index (0, and ignored, unless sharded)
    n_rows, n_edges, payload_off, payload_len           4 x u64

``payload_off`` is an absolute offset into the manifest for
single-file snapshots and into shard file ``shard`` for sharded
ones.

Terms are serialized as a tag byte, a ``u32`` byte length, and a
UTF-8 payload.  The tag records whether the term is a plain node name
or a :class:`~repro.graph.database.Literal` (and the literal's Python
type), so literal-ness survives the round trip without a separate
bitmap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, List, Tuple

from repro.errors import SnapshotCorruptError, SnapshotError
from repro.graph.database import Literal
from repro.storage.checksum import crc32c

MAGIC = b"REPROSNP"
VERSION = 2
VERSION_V1 = 1
VERSION_V3 = 3
SUPPORTED_VERSIONS = (VERSION_V1, VERSION, VERSION_V3)

HEADER = struct.Struct("<8sII9Q")       # v1 (no checksum_table_off)
HEADER_V2 = struct.Struct("<8sII10Q")
HEADER_V3 = struct.Struct("<8sII11Q")   # v2 + n_shards
BLOCK_ENTRY = struct.Struct("<IBBHQQQQ")

#: Header ``flags`` bit 0: the file carries a checksum table.
FLAG_CHECKSUMS = 1
#: Header ``flags`` bit 1 (v3): payloads live in shard files.
FLAG_SHARDED = 2

CHECKSUM_MAGIC = b"CRCS"
CHECKSUM_ALGO_CRC32C = 1
CHECKSUM_HEADER = struct.Struct("<4sHHQ")

SHARD_MAGIC = b"REPROSHD"
SHARD_HEADER = struct.Struct("<8sIIQQ")

#: Hard cap on shard files per snapshot (the block entry's shard
#: field is a u16; anything near it is a misconfiguration anyway).
MAX_SHARDS = 4096

DIRECTION_FORWARD = 0
DIRECTION_BACKWARD = 1
DIRECTIONS = ("forward", "backward")

ENCODING_DENSE = 0
ENCODING_GAP = 1
ENCODINGS = ("dense", "gap")

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
    block_table_off: int
    version: int = VERSION
    checksum_table_off: int = 0   # 0 for v1 (no table)
    n_shards: int = 0             # v3 only; 0 = single-file layout

    @property
    def size(self) -> int:
        if self.version == VERSION_V1:
            return HEADER.size
        if self.version == VERSION_V3:
            return HEADER_V3.size
        return HEADER_V2.size

    @property
    def has_checksums(self) -> bool:
        return self.checksum_table_off != 0

    @property
    def sharded(self) -> bool:
        return self.n_shards > 0

    def pack(self) -> bytes:
        if self.version == VERSION_V1:
            return HEADER.pack(
                MAGIC, VERSION_V1, 0,
                self.n_nodes, self.n_predicates, self.n_triples,
                self.n_blocks,
                self.nodes_off, self.nodes_len, self.preds_off,
                self.preds_len,
                self.block_table_off,
            )
        flags = FLAG_CHECKSUMS if self.has_checksums else 0
        if self.version == VERSION_V3:
            if self.sharded:
                flags |= FLAG_SHARDED
            return HEADER_V3.pack(
                MAGIC, VERSION_V3, flags,
                self.n_nodes, self.n_predicates, self.n_triples,
                self.n_blocks,
                self.nodes_off, self.nodes_len, self.preds_off,
                self.preds_len,
                self.block_table_off, self.checksum_table_off,
                self.n_shards,
            )
        return HEADER_V2.pack(
            MAGIC, VERSION, flags,
            self.n_nodes, self.n_predicates, self.n_triples, self.n_blocks,
            self.nodes_off, self.nodes_len, self.preds_off, self.preds_len,
            self.block_table_off, self.checksum_table_off,
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
        if version not in SUPPORTED_VERSIONS:
            raise SnapshotError(
                f"unsupported snapshot version {version} "
                f"(this build reads versions {SUPPORTED_VERSIONS})"
            )
        checksum_table_off = 0
        n_shards = 0
        if version == VERSION_V1:
            (_magic, _version, _flags, n_nodes, n_predicates, n_triples,
             n_blocks, nodes_off, nodes_len, preds_off, preds_len,
             block_table_off) = HEADER.unpack_from(buffer, 0)
        elif version == VERSION_V3:
            if len(buffer) < HEADER_V3.size:
                raise SnapshotError(
                    f"truncated snapshot: {len(buffer)} bytes, "
                    f"v3 header needs {HEADER_V3.size}"
                )
            (_magic, _version, flags, n_nodes, n_predicates, n_triples,
             n_blocks, nodes_off, nodes_len, preds_off, preds_len,
             block_table_off, checksum_table_off,
             n_shards) = HEADER_V3.unpack_from(buffer, 0)
            if bool(flags & FLAG_SHARDED) != (n_shards > 0):
                raise SnapshotError(
                    f"inconsistent v3 header: flags {flags:#x} vs "
                    f"n_shards {n_shards}"
                )
            if n_shards > MAX_SHARDS:
                raise SnapshotError(
                    f"snapshot claims {n_shards} shards "
                    f"(limit {MAX_SHARDS})"
                )
        else:
            if len(buffer) < HEADER_V2.size:
                raise SnapshotError(
                    f"truncated snapshot: {len(buffer)} bytes, "
                    f"v2 header needs {HEADER_V2.size}"
                )
            (_magic, _version, _flags, n_nodes, n_predicates, n_triples,
             n_blocks, nodes_off, nodes_len, preds_off, preds_len,
             block_table_off,
             checksum_table_off) = HEADER_V2.unpack_from(buffer, 0)
        return cls(
            n_nodes=n_nodes, n_predicates=n_predicates,
            n_triples=n_triples, n_blocks=n_blocks,
            nodes_off=nodes_off, nodes_len=nodes_len,
            preds_off=preds_off, preds_len=preds_len,
            block_table_off=block_table_off,
            version=version, checksum_table_off=checksum_table_off,
            n_shards=n_shards,
        )


@dataclass(frozen=True)
class BlockEntry:
    """One block-table row: where one (label, direction) matrix lives."""

    label_id: int
    direction: int   # DIRECTION_FORWARD / DIRECTION_BACKWARD
    encoding: int    # ENCODING_DENSE / ENCODING_GAP
    n_rows: int
    n_edges: int
    payload_off: int
    payload_len: int
    shard: int = 0   # shard file index; 0 and ignored when single-file

    def pack(self) -> bytes:
        return BLOCK_ENTRY.pack(
            self.label_id, self.direction, self.encoding, self.shard,
            self.n_rows, self.n_edges, self.payload_off, self.payload_len,
        )

    @classmethod
    def unpack_from(cls, buffer, offset: int) -> "BlockEntry":
        (label_id, direction, encoding, shard,
         n_rows, n_edges, payload_off, payload_len) = BLOCK_ENTRY.unpack_from(
            buffer, offset
        )
        if direction not in (DIRECTION_FORWARD, DIRECTION_BACKWARD):
            raise SnapshotError(f"bad block direction {direction}")
        if encoding not in (ENCODING_DENSE, ENCODING_GAP):
            raise SnapshotError(f"bad block encoding {encoding}")
        return cls(
            label_id=label_id, direction=direction, encoding=encoding,
            n_rows=n_rows, n_edges=n_edges,
            payload_off=payload_off, payload_len=payload_len,
            shard=shard,
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


def pack_block_table(entries: Tuple[BlockEntry, ...] | List[BlockEntry]) -> bytes:
    body = b"".join(entry.pack() for entry in entries)
    return body + b"\x00" * pad8(len(body))


# -- checksum table (v2) ----------------------------------------------------


def pack_checksum_table(crcs: List[int]) -> bytes:
    """Serialize the v2 checksum table (self-checksummed, unpadded —
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


# -- shard files (v3) --------------------------------------------------------


def shard_of_label(label: Hashable, n_shards: int) -> int:
    """Which shard file holds the payloads of ``label``.

    CRC32C of the label's serialized term, modulo ``n_shards`` — stable
    across processes and Python hash randomization, so every build of
    the same graph places labels identically.  Both directions of a
    label share its shard by construction.
    """
    if n_shards <= 0:
        raise SnapshotError(f"shard_of_label needs n_shards >= 1, got {n_shards}")
    return crc32c(encode_term(label)) % n_shards


def shard_path(manifest_path, index: int) -> Path:
    """Path of shard file ``index`` next to the manifest."""
    path = Path(manifest_path)
    return path.parent / f"{path.name}.shard{index}"


def pack_shard_header(shard_index: int, n_payloads: int,
                      table_off: int) -> bytes:
    return SHARD_HEADER.pack(
        SHARD_MAGIC, VERSION_V3, shard_index, n_payloads, table_off
    )


def unpack_shard_header(buffer, shard_index: int) -> Tuple[int, int]:
    """Validate a shard file's header; returns ``(n_payloads, table_off)``.

    ``shard_index`` is the index the manifest expects at this path; a
    mismatch means shard files were shuffled or overwritten.
    """
    if len(buffer) < SHARD_HEADER.size:
        raise SnapshotCorruptError(
            f"shard {shard_index} truncated: {len(buffer)} bytes, "
            f"header needs {SHARD_HEADER.size}",
            section=f"shard {shard_index} header",
        )
    magic, version, stored_index, n_payloads, table_off = (
        SHARD_HEADER.unpack_from(buffer, 0)
    )
    if magic != SHARD_MAGIC:
        raise SnapshotCorruptError(
            f"not a repro shard file (bad magic {magic!r})",
            section=f"shard {shard_index} header",
        )
    if version != VERSION_V3:
        raise SnapshotCorruptError(
            f"unsupported shard version {version}",
            section=f"shard {shard_index} header",
        )
    if stored_index != shard_index:
        raise SnapshotCorruptError(
            f"shard file claims index {stored_index}, "
            f"manifest expects {shard_index}",
            section=f"shard {shard_index} header",
        )
    return n_payloads, table_off
