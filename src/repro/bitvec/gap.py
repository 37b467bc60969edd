"""Gap-length (run-length) encoding of bit-vectors.

The paper notes (Sect. 3.3) that its prototype relies on "bit-vector
storage techniques, such as gap-length encoding", so that "the worst
memory consumption might not occur with the label storing the most
bits".  This module provides that storage layer:

* :func:`encode` / :func:`decode` — a bitset as alternating run
  lengths of zeros and ones (starting with a zero-run), as a NumPy
  ``uint32`` array;
* :class:`GapEncodedMatrix` — an adjacency matrix whose rows are kept
  gap-encoded and materialized to :class:`Bitset` on access (with a
  small LRU of hot rows);
* :func:`memory_report` — estimated bytes of the dense-word vs.
  gap-encoded representations of a graph's label matrices, the
  quantity behind the paper's 35 GB / 23 GB discussion.

Gap encoding is a measured alternative, not a storage format: the
paper-table memory benches compare it against the dense words, while
the solver and the snapshot file both use the CSR lists of
:class:`~repro.bitvec.matrix.AdjacencyMatrix` (see
:mod:`repro.bitvec.kernel` and :mod:`repro.storage.format`).
Conversion is one way: :meth:`GapEncodedMatrix.from_adjacency`
compresses a built matrix's dense rows, derived from its CSR, and
:meth:`GapEncodedMatrix.row` decodes one row back.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.bitvec.bitset import Bitset
from repro.graph.graph import Graph

_RUN_DTYPE = np.uint32
_RUN_MAX = int(np.iinfo(_RUN_DTYPE).max)


def encode(bitset: Bitset) -> np.ndarray:
    """Run lengths of alternating zero/one runs, zero-run first.

    Example: 0011101 -> [2, 3, 1, 1] (two zeros, three ones, one
    zero, one one).  An empty vector encodes to an empty array.
    """
    n = bitset.nbits
    if n == 0:
        return np.empty(0, dtype=_RUN_DTYPE)
    bits = np.unpackbits(bitset.words.view(np.uint8), bitorder="little")[:n]
    # Boundaries where the bit value changes.
    changes = np.flatnonzero(np.diff(bits)) + 1
    starts = np.concatenate(([0], changes))
    ends = np.concatenate((changes, [n]))
    runs = (ends - starts).astype(np.int64)
    if bits[0] == 1:
        # Prepend an empty zero-run so decoding always starts at zero.
        runs = np.concatenate(([0], runs))
    if runs.size and runs.max() > _RUN_MAX:
        raise OverflowError("run length exceeds uint32")
    return runs.astype(_RUN_DTYPE)


def decode(runs: np.ndarray, nbits: int) -> Bitset:
    """Inverse of :func:`encode` (vectorized: no per-bit Python loop)."""
    out = Bitset.zeros(nbits)
    if runs.size == 0:
        return out
    ends = np.cumsum(runs.astype(np.int64))
    if int(ends[-1]) != nbits:
        raise ValueError(
            f"run lengths sum to {int(ends[-1])}, expected {nbits}"
        )
    starts = ends - runs
    # One-runs sit at odd positions (encoding starts with a zero-run).
    one_starts = starts[1::2]
    lengths = (ends[1::2] - one_starts).astype(np.int64)
    keep = lengths > 0
    one_starts, lengths = one_starts[keep], lengths[keep]
    if lengths.size == 0:
        return out
    # Expand [start, start+length) ranges into flat indices.
    offsets = np.repeat(lengths.cumsum() - lengths, lengths)
    ones = np.repeat(one_starts, lengths) + (
        np.arange(int(lengths.sum()), dtype=np.int64) - offsets
    )
    return Bitset.from_indices(nbits, ones)


def encoded_bytes(runs: np.ndarray) -> int:
    return int(runs.nbytes)


def dense_bytes(nbits: int) -> int:
    """Bytes of the dense uint64-word representation."""
    return ((nbits + 63) // 64) * 8


class GapEncodedMatrix:
    """An adjacency matrix stored with gap-encoded rows.

    Functionally equivalent to the row dict of
    :class:`~repro.bitvec.matrix.AdjacencyMatrix`; rows decompress on
    access through a bounded LRU cache.
    """

    def __init__(self, n: int, cache_rows: int = 64):
        self.n = n
        self._rows: Dict[int, np.ndarray] = {}
        self._cache: "OrderedDict[int, Bitset]" = OrderedDict()
        self._cache_rows = cache_rows

    @classmethod
    def from_rows(
        cls, n: int, rows: Dict[int, Bitset], cache_rows: int = 64
    ) -> "GapEncodedMatrix":
        matrix = cls(n, cache_rows)
        for index, row in rows.items():
            matrix._rows[index] = encode(row)
        return matrix

    @classmethod
    def from_adjacency(
        cls, adjacency, cache_rows: int = 64
    ) -> "GapEncodedMatrix":
        """Compress a built :class:`~repro.bitvec.matrix.AdjacencyMatrix`."""
        return cls.from_rows(adjacency.n, adjacency.rows, cache_rows)

    def __contains__(self, index: int) -> bool:
        return index in self._rows

    def row(self, index: int) -> Bitset | None:
        packed = self._rows.get(index)
        if packed is None:
            return None
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        decoded = decode(packed, self.n)
        self._cache[index] = decoded
        if len(self._cache) > self._cache_rows:
            self._cache.popitem(last=False)
        return decoded

    def stored_bytes(self) -> int:
        return sum(encoded_bytes(r) for r in self._rows.values())

    def dense_equivalent_bytes(self) -> int:
        return len(self._rows) * dense_bytes(self.n)


@dataclass
class LabelMemory:
    """Memory footprint of one label's adjacency matrices."""

    label: str
    n_edges: int
    dense: int
    encoded: int

    @property
    def ratio(self) -> float:
        if self.dense == 0:
            return 1.0
        return self.encoded / self.dense


def memory_report(graph: Graph) -> Dict[str, LabelMemory]:
    """Per-label dense vs. gap-encoded byte estimates (F and B)."""
    report: Dict[str, LabelMemory] = {}
    for label, pair in graph.matrices().items():
        dense = 0
        encoded_total = 0
        for side in (pair.forward, pair.backward):
            for row in side.rows.values():
                dense += dense_bytes(graph.n_nodes)
                encoded_total += encoded_bytes(encode(row))
        report[str(label)] = LabelMemory(
            label=str(label),
            n_edges=pair.n_edges,
            dense=dense,
            encoded=encoded_total,
        )
    return report


def total_memory(report: Dict[str, LabelMemory]) -> Tuple[int, int]:
    """(dense_bytes, encoded_bytes) summed over all labels."""
    dense = sum(m.dense for m in report.values())
    encoded = sum(m.encoded for m in report.values())
    return dense, encoded
