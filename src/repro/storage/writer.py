"""Snapshot writer: serialize a graph database to the binary format.

The writer takes each label's adjacency in the sorted CSR form the
solver already holds (:meth:`AdjacencyMatrix._csr`) and writes the
three arrays of both directions as they are; a reader adopts them
back without a decode.

Output is deterministic: node ids follow the database's insertion
order, predicate ids are the sorted label order, and the CSR arrays
are canonical, so the same database always produces byte-identical
files.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Union

import numpy as np

from repro.storage.checksum import crc32c
from repro.storage.format import (
    BlockEntry,
    DIRECTION_BACKWARD,
    DIRECTION_FORWARD,
    HEADER,
    Header,
    encode_term_section,
    pack_block_table,
    pack_checksum_table,
)


@dataclass
class WriteReport:
    """What one :func:`write_snapshot` call produced."""

    path: Path
    file_bytes: int
    n_nodes: int
    n_predicates: int
    n_triples: int
    elapsed: float


def _publish(target: Path, data: bytes) -> None:
    """Write ``data`` to ``target`` atomically.

    Snapshot paths double as build-once cache keys (``path.exists()``
    gates regeneration), so a crash mid-write must never leave a
    truncated file at the final path.
    """
    fd, staging = tempfile.mkstemp(
        dir=target.parent, prefix=target.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(staging, target)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise


class SnapshotWriter:
    """Serialize a :class:`~repro.graph.database.GraphDatabase` (or any
    graph exposing ``matrices()``) into one snapshot file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def write(self, db) -> WriteReport:
        start = time.perf_counter()
        n = db.n_nodes
        names = [db.node_name(i) for i in range(n)]
        labels = sorted(db.labels)
        matrices = db.matrices()

        entries: List[BlockEntry] = []
        arrays: List[bytes] = []
        for label_id, label in enumerate(labels):
            pair = matrices[label]
            for direction, matrix in (
                (DIRECTION_FORWARD, pair.forward),
                (DIRECTION_BACKWARD, pair.backward),
            ):
                row_nodes, indptr, indices = matrix._csr()
                entries.append(BlockEntry(
                    label_id=label_id, direction=direction,
                    n_rows=int(row_nodes.size), n_edges=int(indices.size),
                    offset=0,  # patched below
                ))
                arrays += [
                    np.ascontiguousarray(a, dtype="<i8").tobytes()
                    for a in (row_nodes, indptr, indices)
                ]

        nodes_section = encode_term_section(names)
        preds_section = encode_term_section(labels)
        nodes_off = HEADER.size
        preds_off = nodes_off + len(nodes_section)
        table_off = preds_off + len(preds_section)
        cursor = table_off + len(pack_block_table(entries))
        for position, entry in enumerate(entries):
            entries[position] = replace(entry, offset=cursor)
            cursor += entry.nbytes

        header = Header(
            n_nodes=n,
            n_predicates=len(labels),
            n_triples=db.n_edges,
            n_blocks=len(entries),
            nodes_off=nodes_off,
            nodes_len=len(nodes_section),
            preds_off=preds_off,
            preds_len=len(preds_section),
            table_off=table_off,
            checksum_table_off=cursor,
        )
        sections = [
            header.pack(), nodes_section, preds_section,
            pack_block_table(entries),
        ] + arrays
        # One CRC32C per section and per array: every byte of the file
        # is covered by exactly one (the trailing table checksums
        # itself).
        blob = b"".join(sections) + pack_checksum_table(
            [crc32c(s) for s in sections]
        )
        _publish(self.path, blob)
        return WriteReport(
            path=self.path,
            file_bytes=len(blob),
            n_nodes=n,
            n_predicates=len(labels),
            n_triples=db.n_edges,
            elapsed=time.perf_counter() - start,
        )


def write_snapshot(db, path: Union[str, Path]) -> WriteReport:
    """Convenience wrapper: ``SnapshotWriter(path).write(db)``."""
    return SnapshotWriter(path).write(db)
