"""Snapshot reader: mmap a snapshot file and hand out matrix views.

The reader memory-maps the file and parses only the header, the two
term dictionaries, and the block table — O(dictionary) work, not
O(edges).  Adjacency payloads stay untouched until asked for:

* :meth:`SnapshotReader.dense_matrix` wraps a dense block's bytes
  into an :class:`~repro.bitvec.matrix.AdjacencyMatrix` whose packed
  row block is a **zero-copy read-only view** into the mapping;
* :meth:`SnapshotReader.gap_matrix` wraps a gap block into a
  :class:`~repro.bitvec.gap.GapEncodedMatrix` whose per-row run
  arrays are likewise views — decoding happens only when rows are
  touched (or all at once via ``to_adjacency`` on promotion).

Matrices served from a snapshot are read-only: attempting to ``add``
edges to them raises, by NumPy's write protection on the mapped
buffer.  That is deliberate — a snapshot is an immutable artifact;
mutate a :class:`GraphDatabase` and re-export instead.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.bitvec.bitset import Bitset, _word_count
from repro.bitvec.gap import GapEncodedMatrix, decode as gap_decode
from repro.bitvec.matrix import AdjacencyMatrix
from repro.errors import SnapshotCorruptError, SnapshotError
from repro.storage.checksum import crc32c
from repro.storage.format import (
    BLOCK_ENTRY,
    BlockEntry,
    DIRECTIONS,
    ENCODING_DENSE,
    ENCODING_GAP,
    ENCODINGS,
    Header,
    SHARD_HEADER,
    VERSION_V1,
    decode_terms,
    pad8,
    shard_path,
    unpack_checksum_table,
    unpack_shard_header,
)

#: Order of the fixed (non-payload) sections in the checksum table.
_META_SECTIONS = (
    "header", "nodes dictionary", "predicates dictionary", "block table",
)


@dataclass
class LabelBlockInfo:
    """Per-label summary for ``repro db info`` and the residency math."""

    label: str
    encoding: str          # "dense" or "gap"
    n_edges: int           # forward-direction edge count
    payload_bytes: int     # on-disk bytes of both directions
    dense_bytes: int       # bytes both directions would occupy dense


@dataclass
class SnapshotInfo:
    """Header-level summary of an open snapshot."""

    path: Path
    file_bytes: int
    n_nodes: int
    n_predicates: int
    n_triples: int
    n_blocks: int
    labels: List[LabelBlockInfo]
    version: int = VERSION_V1
    checksummed: bool = False
    n_shards: int = 0

    @property
    def n_hot(self) -> int:
        return sum(1 for i in self.labels if i.encoding == "dense")

    @property
    def n_cold(self) -> int:
        return sum(1 for i in self.labels if i.encoding == "gap")

    def to_dict(self) -> Dict:
        return {
            "path": str(self.path),
            "file_bytes": self.file_bytes,
            "n_nodes": self.n_nodes,
            "n_predicates": self.n_predicates,
            "n_triples": self.n_triples,
            "n_blocks": self.n_blocks,
            "n_hot": self.n_hot,
            "n_cold": self.n_cold,
            "version": self.version,
            "checksummed": self.checksummed,
            "n_shards": self.n_shards,
            "labels": [
                {
                    "label": i.label,
                    "encoding": i.encoding,
                    "n_edges": i.n_edges,
                    "payload_bytes": i.payload_bytes,
                    "dense_bytes": i.dense_bytes,
                }
                for i in self.labels
            ],
        }


@dataclass
class SectionCheck:
    """Integrity status of one file section."""

    section: str
    status: str        # "ok" or "corrupt"
    detail: str = ""


@dataclass
class VerificationReport:
    """`SnapshotReader.verify()` — one status per file section.

    v2 files check every section against its stored CRC32C; v1 files
    have no checksums, so verification falls back to a structural
    decode of every block (catches truncation and malformed payloads,
    not silent bit flips — ``checksummed`` says which bar applied).
    """

    path: Path
    version: int
    checksummed: bool
    sections: List[SectionCheck]

    @property
    def ok(self) -> bool:
        return all(s.status == "ok" for s in self.sections)

    @property
    def n_corrupt(self) -> int:
        return sum(1 for s in self.sections if s.status != "ok")

    def corrupt_sections(self) -> List[str]:
        return [s.section for s in self.sections if s.status != "ok"]

    def to_dict(self) -> Dict:
        return {
            "path": str(self.path),
            "version": self.version,
            "checksummed": self.checksummed,
            "ok": self.ok,
            "sections": [
                {
                    "section": s.section,
                    "status": s.status,
                    **({"detail": s.detail} if s.detail else {}),
                }
                for s in self.sections
            ],
        }


class SnapshotReader:
    """An open, memory-mapped snapshot file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        if not self.path.exists():
            raise SnapshotError(f"snapshot not found: {self.path}")
        self._file = self.path.open("rb")
        try:
            self._mm = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except ValueError as error:
            self._file.close()
            raise SnapshotError(
                f"cannot map snapshot {self.path}: {error}"
            ) from None
        try:
            self._header = Header.unpack(self._mm)
            header = self._header
            #: per-section CRC32C list (None for v1 / unchecksummed).
            self._crcs: Optional[List[int]] = None
            #: payload blocks already CRC-verified, by block-table seq.
            self._verified: set = set()
            #: (label, direction) -> position in the block table.
            self._block_seq: Dict[Tuple[str, str], int] = {}
            #: sharded only: (label, direction) -> position among the
            #: payloads of its shard file (its shard-CRC-table slot is
            #: that position + 1; slot 0 is the shard header).
            self._shard_pos: Dict[Tuple[str, str], int] = {}
            #: shard index -> open mmap / file handle / CRC list,
            #: filled lazily on first payload touch.
            self._shard_mms: Dict[int, mmap.mmap] = {}
            self._shard_handles: Dict[int, object] = {}
            self._shard_crcs: Dict[int, List[int]] = {}
            if header.has_checksums:
                self._crcs = unpack_checksum_table(
                    self._mm, header.checksum_table_off
                )
                # Sharded manifests checksum only the metadata
                # sections — payload CRCs live in the shard files.
                expected = len(_META_SECTIONS) + (
                    0 if header.sharded else header.n_blocks
                )
                if len(self._crcs) != expected:
                    raise SnapshotCorruptError(
                        f"checksum table has {len(self._crcs)} entries, "
                        f"expected {expected}",
                        section="checksum table",
                    )
                # Metadata is cheap to checksum and about to be
                # decoded: verify it eagerly so corruption surfaces as
                # the typed error, not a downstream decode failure.
                # Payloads are verified lazily on first access.
                for index, (section, start, length) in enumerate(
                    self._meta_ranges()
                ):
                    self._verify_range(section, start, length, index)
            self._node_terms: List[Hashable] = decode_terms(
                self._mm[header.nodes_off:header.nodes_off + header.nodes_len],
                header.n_nodes,
            )
            pred_bytes = self._mm[
                header.preds_off:header.preds_off + header.preds_len
            ]
            self._predicate_terms: List[str] = [
                str(t) for t in decode_terms(pred_bytes, header.n_predicates)
            ]
            self._blocks: Dict[Tuple[str, str], BlockEntry] = {}
            offset = header.block_table_off
            per_shard_count = [0] * header.n_shards
            for position in range(header.n_blocks):
                entry = BlockEntry.unpack_from(self._mm, offset)
                offset += BLOCK_ENTRY.size
                if entry.label_id >= len(self._predicate_terms):
                    raise SnapshotError(
                        "block references unknown predicate id "
                        f"{entry.label_id}"
                    )
                label = self._predicate_terms[entry.label_id]
                key = (label, DIRECTIONS[entry.direction])
                self._blocks[key] = entry
                self._block_seq[key] = position
                if header.sharded:
                    if entry.shard >= header.n_shards:
                        raise SnapshotError(
                            f"block {label}/{key[1]} references shard "
                            f"{entry.shard} of {header.n_shards}"
                        )
                    self._shard_pos[key] = per_shard_count[entry.shard]
                    per_shard_count[entry.shard] += 1
            # Fail a sharded open fast when a shard file is gone, not
            # on the first (arbitrarily later) query that touches it.
            for index in range(header.n_shards):
                if not shard_path(self.path, index).exists():
                    raise SnapshotError(
                        f"missing shard file {shard_path(self.path, index)}"
                    )
        except Exception:
            self._mm.close()
            self._file.close()
            raise
        self._n_words = _word_count(header.n_nodes)

    def _meta_ranges(self) -> List[Tuple[str, int, int]]:
        """(section name, offset, length) of the fixed sections, in
        checksum-table order."""
        header = self._header
        table_len = BLOCK_ENTRY.size * header.n_blocks
        table_len += pad8(table_len)
        return [
            ("header", 0, header.size),
            ("nodes dictionary", header.nodes_off, header.nodes_len),
            ("predicates dictionary", header.preds_off, header.preds_len),
            ("block table", header.block_table_off, table_len),
        ]

    def _verify_range(
        self, section: str, start: int, length: int, crc_index: int,
        buffer=None, crcs: Optional[List[int]] = None,
    ) -> None:
        """Check one byte range against its stored CRC32C.

        Defaults to the manifest mapping and its table; pass a shard
        mapping + its own CRC list to check a shard-resident range."""
        if buffer is None:
            buffer = self._mm
        if crcs is None:
            crcs = self._crcs
        end = start + length
        if end > len(buffer):
            raise SnapshotCorruptError(
                f"{section} extends past end of file "
                f"({end} > {len(buffer)})",
                section=section,
            )
        actual = crc32c(buffer[start:end])
        expected = crcs[crc_index]
        if actual != expected:
            raise SnapshotCorruptError(
                f"{section} failed CRC32C "
                f"(stored {expected:#010x}, computed {actual:#010x})",
                section=section,
            )

    # -- shard files (v3) -----------------------------------------------

    def _shard_mm(self, index: int) -> mmap.mmap:
        """The mapping of shard ``index``, opened and header-verified
        on first touch.

        Shards open lazily so a reader that only ever touches a few
        labels maps only their shards."""
        mm = self._shard_mms.get(index)
        if mm is not None:
            return mm
        path = shard_path(self.path, index)
        if not path.exists():
            raise SnapshotError(f"missing shard file {path}")
        handle = path.open("rb")
        try:
            mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as error:
            handle.close()
            raise SnapshotError(
                f"cannot map shard {path}: {error}"
            ) from None
        try:
            n_payloads, table_off = unpack_shard_header(mm, index)
            crcs = unpack_checksum_table(mm, table_off)
            if len(crcs) != 1 + n_payloads:
                raise SnapshotCorruptError(
                    f"shard {index} checksum table has {len(crcs)} "
                    f"entries, expected {1 + n_payloads}",
                    section=f"shard {index} checksum table",
                )
            # Slot 0 covers the shard header itself.
            self._verify_range(
                f"shard {index} header", 0, SHARD_HEADER.size, 0,
                buffer=mm, crcs=crcs,
            )
        except Exception:
            mm.close()
            handle.close()
            raise
        self._shard_mms[index] = mm
        self._shard_handles[index] = handle
        self._shard_crcs[index] = crcs
        return mm

    def _buf(self, entry: BlockEntry):
        """The buffer holding ``entry``'s payload bytes — the manifest
        mapping, or the entry's shard mapping when sharded."""
        if self._header.sharded:
            return self._shard_mm(entry.shard)
        return self._mm

    def _check_payload(self, label: str, direction: str,
                       entry: BlockEntry) -> None:
        """Verify a block payload on first access (v2+; no-op for v1).

        Verified payloads are remembered per block — the mapping is
        immutable for the reader's lifetime, so one pass suffices no
        matter how often the block is promoted or demoted."""
        if self._crcs is None:
            return
        position = self._block_seq[(label, direction)]
        if position in self._verified:
            return
        if self._header.sharded:
            self._verify_range(
                f"payload {label}/{direction}",
                entry.payload_off, entry.payload_len,
                1 + self._shard_pos[(label, direction)],
                buffer=self._shard_mm(entry.shard),
                crcs=self._shard_crcs[entry.shard],
            )
        else:
            self._verify_range(
                f"payload {label}/{direction}",
                entry.payload_off, entry.payload_len,
                len(_META_SECTIONS) + position,
            )
        self._verified.add(position)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release the mappings.  Safe to skip: dropping the reader (and
        every matrix view served from it) releases the files as well."""
        maps = [(self._mm, self._file)] + [
            (self._shard_mms[i], self._shard_handles[i])
            for i in sorted(self._shard_mms)
        ]
        for mm, handle in maps:
            try:
                mm.close()
            except BufferError:
                # NumPy views into the mapping are still alive; the map
                # is released when they are garbage collected.
                pass
            # The descriptor is independent of the mapping's lifetime:
            # close it either way so live views never pin an fd.
            handle.close()
        self._shard_mms.clear()
        self._shard_handles.clear()
        self._shard_crcs.clear()

    def __enter__(self) -> "SnapshotReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- header accessors ------------------------------------------------

    @property
    def file_bytes(self) -> int:
        """Total on-disk bytes: the manifest plus every shard file."""
        total = len(self._mm)
        if self._header.sharded:
            for index in range(self._header.n_shards):
                try:
                    total += shard_path(self.path, index).stat().st_size
                except OSError:
                    pass
            return total
        return total

    @property
    def n_shards(self) -> int:
        return self._header.n_shards

    @property
    def n_nodes(self) -> int:
        return self._header.n_nodes

    @property
    def n_predicates(self) -> int:
        return self._header.n_predicates

    @property
    def n_triples(self) -> int:
        return self._header.n_triples

    @property
    def version(self) -> int:
        return self._header.version

    @property
    def checksummed(self) -> bool:
        return self._crcs is not None

    def node_terms(self) -> List[Hashable]:
        return self._node_terms

    def predicate_terms(self) -> List[str]:
        return self._predicate_terms

    def labels(self) -> List[str]:
        return list(self._predicate_terms)

    def encoding_of(self, label: str) -> str:
        entry = self._entry(label, "forward")
        return ENCODINGS[entry.encoding]

    # -- block access ------------------------------------------------------

    def _entry(self, label: str, direction: str) -> BlockEntry:
        try:
            return self._blocks[(label, direction)]
        except KeyError:
            raise SnapshotError(
                f"no {direction} block for label {label!r}"
            ) from None

    def _array(self, dtype, count: int, offset: int,
               buffer=None) -> np.ndarray:
        if buffer is None:
            buffer = self._mm
        end = offset + np.dtype(dtype).itemsize * count
        if end > len(buffer):
            raise SnapshotError(
                "block payload extends past end of file "
                f"({end} > {len(buffer)})"
            )
        return np.frombuffer(buffer, dtype=dtype, count=count,
                             offset=offset)

    def _row_nodes(self, entry: BlockEntry) -> np.ndarray:
        """The block's row node ids, range-checked against the header.

        An id outside ``[0, n_nodes)`` would otherwise index silently
        (negative wrap-around) or raise a bare NumPy error; corrupt
        files must fail as :class:`SnapshotError` like every other
        malformed-file path."""
        nodes = self._array(np.int64, entry.n_rows, entry.payload_off,
                            buffer=self._buf(entry))
        if nodes.size and (
            int(nodes.min()) < 0 or int(nodes.max()) >= self.n_nodes
        ):
            raise SnapshotError(
                f"block row node ids out of range [0, {self.n_nodes})"
            )
        return nodes

    def row_nodes(self, label: str, direction: str) -> np.ndarray:
        """The node ids owning a non-empty row in the block — i.e. the
        set bits of the Eq. (13) summary vector — served straight from
        the block table without decoding any row payload (the
        summary-only cold read behind
        :meth:`TieredGraphView.label_summaries`)."""
        entry = self._entry(label, direction)
        self._check_payload(label, direction, entry)
        return self._row_nodes(entry)

    def dense_matrix(self, label: str, direction: str) -> AdjacencyMatrix:
        """Zero-copy :class:`AdjacencyMatrix` over a dense block."""
        entry = self._entry(label, direction)
        self._check_payload(label, direction, entry)
        if entry.encoding != ENCODING_DENSE:
            raise SnapshotError(
                f"label {label!r} is gap-encoded; use gap_matrix()"
            )
        n = self.n_nodes
        nodes = self._row_nodes(entry)
        packed = self._array(
            np.uint64, entry.n_rows * self._n_words,
            entry.payload_off + 8 * entry.n_rows,
            buffer=self._buf(entry),
        ).reshape(entry.n_rows, self._n_words)
        out = AdjacencyMatrix(n)
        for position, node in enumerate(nodes.tolist()):
            out.rows[node] = Bitset._wrap(n, packed[position])
        out.summary = Bitset.from_indices(n, nodes)
        out.n_edges = entry.n_edges
        row_index = np.full(n, -1, dtype=np.int64)
        row_index[nodes] = np.arange(nodes.size, dtype=np.int64)
        out._row_nodes = nodes
        out._row_index = row_index
        out._word_idx = nodes // 64
        out._bit_shift = (nodes % 64).astype(np.uint64)
        out._packed = packed
        return out

    def gap_matrix(self, label: str, direction: str) -> GapEncodedMatrix:
        """View-backed :class:`GapEncodedMatrix` over a gap block."""
        entry = self._entry(label, direction)
        self._check_payload(label, direction, entry)
        if entry.encoding != ENCODING_GAP:
            raise SnapshotError(
                f"label {label!r} is dense; use dense_matrix()"
            )
        n = self.n_nodes
        nodes = self._row_nodes(entry)
        buffer = self._buf(entry)
        offsets = self._array(
            np.uint64, entry.n_rows + 1,
            entry.payload_off + 8 * entry.n_rows,
            buffer=buffer,
        )
        runs = self._array(
            np.uint32, int(offsets[-1]) if entry.n_rows else 0,
            entry.payload_off + 8 * entry.n_rows + 8 * (entry.n_rows + 1),
            buffer=buffer,
        )
        out = GapEncodedMatrix(n)
        bounds = offsets.astype(np.int64)
        for position, node in enumerate(nodes.tolist()):
            out._rows[node] = runs[bounds[position]:bounds[position + 1]]
        return out

    def payload_bytes(self, label: str) -> int:
        """On-disk payload bytes of both directions of one label."""
        return sum(
            self._entry(label, d).payload_len for d in DIRECTIONS
        )

    def n_label_edges(self, label: str) -> int:
        return self._entry(label, "forward").n_edges

    # -- whole-graph iteration ----------------------------------------------

    def iter_id_triples(self) -> Iterator[Tuple[int, int, int]]:
        """All (subject, predicate, object) id triples, decoded from
        the forward blocks (labels in id order, subjects ascending)."""
        for label_id, label in enumerate(self._predicate_terms):
            entry = self._entry(label, "forward")
            n = self.n_nodes
            if entry.encoding == ENCODING_DENSE:
                matrix = self.dense_matrix(label, "forward")
                for node in matrix._row_nodes.tolist():
                    for obj in matrix.rows[node].iter_ones().tolist():
                        yield (node, label_id, obj)
            else:
                matrix = self.gap_matrix(label, "forward")
                for node in sorted(matrix._rows):
                    row = gap_decode(matrix._rows[node], n)
                    for obj in row.iter_ones().tolist():
                        yield (node, label_id, obj)

    def iter_triples(self) -> Iterator[Tuple[Hashable, str, Hashable]]:
        """All name triples (decoded through the dictionaries)."""
        nodes = self._node_terms
        preds = self._predicate_terms
        for s, p, o in self.iter_id_triples():
            yield (nodes[s], preds[p], nodes[o])

    # -- verification -------------------------------------------------------

    def verify(self) -> VerificationReport:
        """Full-file integrity check, one status per section.

        v2: every metadata section and every payload is checked
        against its stored CRC32C (results are collected, never
        raised, so ``repro db verify`` can report all damage at once).
        v1 files carry no checksums; each block is structurally
        decoded instead, which still catches truncation and malformed
        payloads.
        """
        sections: List[SectionCheck] = []
        if self._crcs is not None:
            for index, (name, start, length) in enumerate(
                self._meta_ranges()
            ):
                sections.append(
                    self._checked(name, start, length, index)
                )
            meta = len(_META_SECTIONS)
            for key, position in sorted(
                self._block_seq.items(), key=lambda kv: kv[1]
            ):
                entry = self._blocks[key]
                name = f"payload {key[0]}/{key[1]}"
                if self._header.sharded:
                    # Opening the shard verifies its header; a missing
                    # or structurally broken shard file reports as a
                    # corrupt section, not a raised error.
                    try:
                        buffer = self._shard_mm(entry.shard)
                    except SnapshotError as error:
                        sections.append(
                            SectionCheck(name, "corrupt", str(error))
                        )
                        continue
                    sections.append(self._checked(
                        name, entry.payload_off, entry.payload_len,
                        1 + self._shard_pos[key],
                        buffer=buffer, crcs=self._shard_crcs[entry.shard],
                    ))
                else:
                    sections.append(self._checked(
                        name, entry.payload_off, entry.payload_len,
                        meta + position,
                    ))
        else:
            for (label, direction), entry in sorted(
                self._blocks.items()
            ):
                name = f"payload {label}/{direction}"
                try:
                    if entry.encoding == ENCODING_DENSE:
                        self.dense_matrix(label, direction)
                    else:
                        # Full decode: runs must reconstruct every row
                        # (a dense check only wraps views).
                        matrix = self.gap_matrix(label, direction)
                        for node in matrix._rows:
                            gap_decode(matrix._rows[node], self.n_nodes)
                    sections.append(SectionCheck(name, "ok",
                                                 "structural check only"))
                except SnapshotError as error:
                    sections.append(
                        SectionCheck(name, "corrupt", str(error))
                    )
        return VerificationReport(
            path=self.path,
            version=self.version,
            checksummed=self.checksummed,
            sections=sections,
        )

    def _checked(
        self, section: str, start: int, length: int, crc_index: int,
        buffer=None, crcs: Optional[List[int]] = None,
    ) -> SectionCheck:
        try:
            self._verify_range(section, start, length, crc_index,
                               buffer=buffer, crcs=crcs)
        except SnapshotCorruptError as error:
            return SectionCheck(section, "corrupt", str(error))
        return SectionCheck(section, "ok")

    # -- info -----------------------------------------------------------------

    def info(self) -> SnapshotInfo:
        n_words = self._n_words
        labels: List[LabelBlockInfo] = []
        for label in self._predicate_terms:
            dense_total = 0
            for direction in DIRECTIONS:
                entry = self._entry(label, direction)
                dense_total += 8 * entry.n_rows * (1 + n_words)
            labels.append(
                LabelBlockInfo(
                    label=label,
                    encoding=self.encoding_of(label),
                    n_edges=self.n_label_edges(label),
                    payload_bytes=self.payload_bytes(label),
                    dense_bytes=dense_total,
                )
            )
        return SnapshotInfo(
            path=self.path,
            file_bytes=self.file_bytes,
            n_nodes=self.n_nodes,
            n_predicates=self.n_predicates,
            n_triples=self.n_triples,
            n_blocks=self._header.n_blocks,
            labels=labels,
            version=self.version,
            checksummed=self.checksummed,
            n_shards=self._header.n_shards,
        )

    def __repr__(self) -> str:
        return (
            f"SnapshotReader({self.path.name}, |O|={self.n_nodes}, "
            f"triples={self.n_triples}, labels={self.n_predicates})"
        )
