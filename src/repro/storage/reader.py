"""Snapshot reader: mmap a snapshot file and hand out CSR views.

The reader memory-maps the file and parses only the header, the two
term dictionaries, and the array table — O(dictionary) work, not
O(edges).  Adjacency arrays stay untouched until asked for:
:meth:`SnapshotReader.csr` returns a label direction's ``row_nodes``,
``indptr`` and ``indices`` as **zero-copy read-only views** into the
mapping, after checking them once against their CRC32Cs, the CSR
invariants (:func:`_csr_problem`) and, the label being the unit of
that check, the backward arrays against the transpose of the forward
ones (:func:`_transpose_problem`).  Everything else that reads
adjacency — :meth:`~SnapshotReader.iter_id_triples`,
:meth:`~SnapshotReader.verify` — reads those same arrays.

The views are read-only, by NumPy's write protection on the mapped
buffer.  That is deliberate — a snapshot is an immutable artifact;
edit it through :meth:`repro.Database.edit` and compact into a new
file instead.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.bitvec import CSR
from repro.errors import SnapshotCorruptError, SnapshotError
from repro.storage.checksum import crc32c
from repro.storage.format import (
    ARRAYS,
    BLOCK_ENTRY,
    BlockEntry,
    DIRECTIONS,
    Header,
    VERSION,
    decode_terms,
    pad8,
    unpack_checksum_table,
)

#: Order of the fixed (non-array) sections in the checksum table.
_META_SECTIONS = (
    "header", "nodes dictionary", "predicates dictionary", "array table",
)


def _csr_problem(
    n: int, row_nodes: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> Optional[str]:
    """What breaks the sorted-CSR invariants of ``(row_nodes, indptr,
    indices)`` over ``n`` nodes, or ``None`` when nothing does."""
    if row_nodes.size:
        if np.any(row_nodes[1:] <= row_nodes[:-1]):
            return "row_nodes not strictly increasing"
        if row_nodes[0] < 0 or row_nodes[-1] >= n:
            return f"row node out of range [0, {n})"
    if indptr[0] != 0 or indptr[-1] != indices.size:
        return "indptr does not span indices"
    if np.any(indptr[1:] <= indptr[:-1]):
        return "indptr not strictly increasing"
    if indices.size:
        if indices.min() < 0 or indices.max() >= n:
            return f"index out of range [0, {n})"
        ascending = indices[1:] > indices[:-1]
        ascending[indptr[1:-1] - 1] = True  # row boundaries
        if not ascending.all():
            return "row indices not strictly increasing"
    return None


def _transpose_problem(forward: CSR, backward: CSR) -> Optional[str]:
    """Whether ``backward`` is exactly the transpose of ``forward``."""
    rows, indptr, indices = forward
    b_rows, b_indptr, b_indices = backward
    if indices.size != b_indices.size:
        return "backward edge count differs from forward"
    subjects = np.repeat(rows, np.diff(indptr))
    order = np.lexsort((subjects, indices))
    if not (
        np.array_equal(indices[order], np.repeat(b_rows, np.diff(b_indptr)))
        and np.array_equal(subjects[order], b_indices)
    ):
        return "backward is not the transpose of forward"
    return None


@dataclass
class LabelBlockInfo:
    """Per-label summary for ``repro db info`` and the residency math."""

    label: str
    n_edges: int           # forward-direction edge count
    payload_bytes: int     # array bytes of both directions


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
    version: int

    def to_dict(self) -> Dict:
        return {
            "path": str(self.path),
            "file_bytes": self.file_bytes,
            "n_nodes": self.n_nodes,
            "n_predicates": self.n_predicates,
            "n_triples": self.n_triples,
            "n_blocks": self.n_blocks,
            "version": self.version,
            "labels": [
                {
                    "label": i.label,
                    "n_edges": i.n_edges,
                    "payload_bytes": i.payload_bytes,
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
    """`SnapshotReader.verify()` — one status per file section: every
    section's CRC32C, each (label, direction)'s CSR structure, and
    each label's forward/backward transposition."""

    path: Path
    version: int
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


def _payload(label: str, direction: str) -> str:
    return f"payload {label}/{direction}"


def _transpose(label: str) -> str:
    return f"payload {label} transpose"


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
            self._header = header = Header.unpack(self._mm)
            self._crcs: List[int] = unpack_checksum_table(
                self._mm, header.checksum_table_off
            )
            expected = len(_META_SECTIONS) + len(ARRAYS) * header.n_blocks
            if len(self._crcs) != expected:
                raise SnapshotCorruptError(
                    f"checksum table has {len(self._crcs)} entries, "
                    f"expected {expected}",
                    section="checksum table",
                )
            # Metadata is cheap to checksum and about to be decoded:
            # verify it eagerly so corruption surfaces as the typed
            # error, not a downstream decode failure.  Arrays are
            # verified on first access.
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
            #: (label, direction) -> position in the array table.
            self._block_seq: Dict[Tuple[str, str], int] = {}
            offset = header.table_off
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
        except Exception:
            self._mm.close()
            self._file.close()
            raise
        #: (label, direction) pairs whose arrays passed every check.
        self._verified: Set[Tuple[str, str]] = set()

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
            ("array table", header.table_off, table_len),
        ]

    def _array_ranges(
        self, label: str, direction: str
    ) -> List[Tuple[str, int, int, int]]:
        """(section name, offset, byte length, CRC slot) of the three
        arrays of one (label, direction)."""
        entry = self._entry(label, direction)
        first = len(_META_SECTIONS) + len(ARRAYS) * self._block_seq[
            (label, direction)
        ]
        return [
            (f"{_payload(label, direction)} {name}", offset, 8 * count,
             first + k)
            for k, (name, offset, count) in enumerate(entry.arrays())
        ]

    def _verify_range(
        self, section: str, start: int, length: int, crc_index: int
    ) -> None:
        """Check one byte range against its stored CRC32C."""
        end = start + length
        if end > len(self._mm):
            raise SnapshotCorruptError(
                f"{section} extends past end of file "
                f"({end} > {len(self._mm)})",
                section=section,
            )
        # A view, not a copy; released before returning, or the open
        # export would keep close() from unmapping the file.
        with memoryview(self._mm)[start:end] as view:
            actual = crc32c(view)
        expected = self._crcs[crc_index]
        if actual != expected:
            raise SnapshotCorruptError(
                f"{section} failed CRC32C "
                f"(stored {expected:#010x}, computed {actual:#010x})",
                section=section,
            )

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release the mapping.  Safe to skip: dropping the reader (and
        every array view served from it) releases the file as well."""
        try:
            self._mm.close()
        except BufferError:
            # NumPy views into the mapping are still alive; the map is
            # released when they are garbage collected.
            pass
        # The descriptor is independent of the mapping's lifetime:
        # close it either way so live views never pin an fd.
        self._file.close()

    def __enter__(self) -> "SnapshotReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- header accessors ------------------------------------------------

    @property
    def file_bytes(self) -> int:
        return len(self._mm)

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
        return VERSION

    def node_terms(self) -> List[Hashable]:
        return self._node_terms

    def predicate_terms(self) -> List[str]:
        return self._predicate_terms

    def labels(self) -> List[str]:
        return list(self._predicate_terms)

    # -- array access ------------------------------------------------------

    def _entry(self, label: str, direction: str) -> BlockEntry:
        try:
            return self._blocks[(label, direction)]
        except KeyError:
            raise SnapshotError(
                f"no {direction} block for label {label!r}"
            ) from None

    def _views(self, label: str, direction: str) -> CSR:
        return tuple(
            np.frombuffer(self._mm, dtype="<i8", count=count, offset=offset)
            for _, offset, count in self._entry(label, direction).arrays()
        )

    def _checked_csr(self, label: str, direction: str) -> CSR:
        """The views, checked once per reader and label: the mapping is
        immutable for the reader's lifetime, so one pass suffices no
        matter how often the arrays are read.

        The label is the unit of the check, because every reader of
        one direction relies on the other — the solver's column-wise
        products read ``B_a`` as the transpose of ``F_a``.  The first
        read of either direction checks both directions' CRCs and CSR
        invariants and that backward is the transpose of forward.
        """
        if (label, direction) not in self._verified:
            arrays = {d: self._structured_csr(label, d) for d in DIRECTIONS}
            problem = _transpose_problem(arrays["forward"], arrays["backward"])
            if problem is not None:
                raise SnapshotCorruptError(
                    f"{label}: {problem}", section=_transpose(label)
                )
            self._verified.update((label, d) for d in DIRECTIONS)
        return self._views(label, direction)

    def _structured_csr(self, label: str, direction: str) -> CSR:
        """One direction's views after its CRC32Cs and CSR invariants."""
        for section, offset, length, slot in self._array_ranges(
            label, direction
        ):
            self._verify_range(section, offset, length, slot)
        arrays = self._views(label, direction)
        problem = _csr_problem(self.n_nodes, *arrays)
        if problem is not None:
            raise SnapshotCorruptError(
                f"{label}/{direction}: {problem}",
                section=_payload(label, direction),
            )
        return arrays

    def csr(self, label: str, direction: str) -> CSR:
        """``(row_nodes, indptr, indices)`` of one label direction, as
        read-only int64 views into the mapping — the only payload
        entry point (the promotion read the tiered store retries)."""
        return self._checked_csr(label, direction)

    def payload_bytes(self, label: str) -> int:
        """On-disk array bytes of both directions of one label."""
        return sum(self._entry(label, d).nbytes for d in DIRECTIONS)

    def label_counts(self, label: str) -> Tuple[int, int, int]:
        """``(edges, distinct subjects, distinct objects)`` of one
        label, from the array table: nothing is read or checked."""
        forward = self._entry(label, "forward")
        backward = self._entry(label, "backward")
        return (forward.n_edges, forward.n_rows, backward.n_rows)

    # -- whole-graph iteration ----------------------------------------------

    def iter_id_triples(self) -> Iterator[Tuple[int, int, int]]:
        """All (subject, predicate, object) id triples, from the
        forward arrays (labels in id order, subjects ascending)."""
        for label_id, label in enumerate(self._predicate_terms):
            rows, indptr, indices = self._checked_csr(label, "forward")
            subjects = np.repeat(rows, np.diff(indptr))
            for s, o in zip(subjects.tolist(), indices.tolist()):
                yield (s, label_id, o)

    def iter_triples(self) -> Iterator[Tuple[Hashable, str, Hashable]]:
        """All name triples (decoded through the dictionaries)."""
        nodes = self._node_terms
        preds = self._predicate_terms
        for s, p, o in self.iter_id_triples():
            yield (nodes[s], preds[p], nodes[o])

    # -- verification -------------------------------------------------------

    def verify(self) -> VerificationReport:
        """Full-file integrity check, one status per section.

        Every metadata section and every array is checked against its
        stored CRC32C, every (label, direction) against the CSR
        invariants and every label's backward arrays against the
        transpose of its forward ones.  Results are collected, never
        raised, so ``repro db verify`` can report all damage at once.
        """
        sections = [
            self._checked(name, start, length, index)
            for index, (name, start, length) in enumerate(self._meta_ranges())
        ]
        sound: Dict[Tuple[str, str], CSR] = {}
        for key in sorted(self._block_seq, key=self._block_seq.get):
            crcs = [
                self._checked(section, offset, length, slot)
                for section, offset, length, slot in self._array_ranges(*key)
            ]
            sections += crcs
            if any(check.status != "ok" for check in crcs):
                continue
            arrays = self._views(*key)
            problem = _csr_problem(self.n_nodes, *arrays)
            sections.append(SectionCheck(
                f"{_payload(*key)} structure",
                "ok" if problem is None else "corrupt",
                problem or "",
            ))
            if problem is None:
                sound[key] = arrays
        for label in self._predicate_terms:
            forward = sound.get((label, "forward"))
            backward = sound.get((label, "backward"))
            if forward is None or backward is None:
                continue
            problem = _transpose_problem(forward, backward)
            sections.append(SectionCheck(
                _transpose(label),
                "ok" if problem is None else "corrupt",
                problem or "",
            ))
        return VerificationReport(
            path=self.path, version=self.version, sections=sections,
        )

    def _checked(
        self, section: str, start: int, length: int, crc_index: int
    ) -> SectionCheck:
        try:
            self._verify_range(section, start, length, crc_index)
        except SnapshotCorruptError as error:
            return SectionCheck(section, "corrupt", str(error))
        return SectionCheck(section, "ok")

    # -- info -----------------------------------------------------------------

    def info(self) -> SnapshotInfo:
        return SnapshotInfo(
            path=self.path,
            file_bytes=self.file_bytes,
            n_nodes=self.n_nodes,
            n_predicates=self.n_predicates,
            n_triples=self.n_triples,
            n_blocks=self._header.n_blocks,
            labels=[
                LabelBlockInfo(
                    label=label,
                    n_edges=self.label_counts(label)[0],
                    payload_bytes=self.payload_bytes(label),
                )
                for label in self._predicate_terms
            ],
            version=self.version,
        )

    def __repr__(self) -> str:
        return (
            f"SnapshotReader({self.path.name}, |O|={self.n_nodes}, "
            f"triples={self.n_triples}, labels={self.n_predicates})"
        )
