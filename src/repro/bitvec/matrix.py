"""Per-label adjacency bit-matrices (Sect. 3.2 of the paper).

For every edge label ``a`` the paper stores two adjacency matrices
``F_a`` (forward) and ``B_a`` (backward).  Dense |V|x|V| bit matrices
are wasteful for sparse graphs, so rows are materialized only for
nodes that actually have ``a``-labeled edges; absent rows are
all-zero.  This mirrors the gap-encoded storage the paper's prototype
uses.

Two physical layouts back the same logical matrix:

* a dict from node index to a :class:`Bitset` row — always present,
  cheap to build incrementally, and the layout the ``"reference"``
  kernel loops over;
* a **packed block** built by :meth:`AdjacencyMatrix.pack`: all
  non-empty rows stacked into one contiguous ``(n_rows, n_words)``
  ``uint64`` array plus an int index mapping node -> packed row.
  After packing, the dict rows are rebound to *views* into the block,
  so the two layouts share memory.  The summary vector (Eq. (13))
  falls out of the build as the bitset of indexed nodes.

The core operation is the bit-vector x bit-matrix product (Eq. (9)):

    ``(chi x_b F_a)(j) = 1`` iff exists ``i`` with ``chi(i) = 1`` and
    ``F_a(i, j) = 1``.

Two evaluation strategies are provided, matching Sect. 3.3:

* *row-wise*  — OR together the rows selected by set bits of ``chi``;
  cost is proportional to ``popcount(chi)``.
* *column-wise* — restricted to a target mask, test for each masked
  column ``j`` whether the *transposed* row (i.e. the row of the dual
  matrix) intersects ``chi``; cost is proportional to
  ``popcount(mask)``.

Both return identical results; the solver picks per evaluation.  On
the ``"packed"`` kernel (see :mod:`repro.bitvec.kernel`) the row-wise
product is a single ``np.bitwise_or.reduce`` over the selected row
block and the column-wise product is one vectorized masked
any-intersection test ``(block & vec.words).any(axis=1)`` — no
Python-level per-row/per-column loop, no allocation per set bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

from repro.bitvec.bitset import Bitset, _WORD_BITS, _word_count
from repro.bitvec.kernel import REFERENCE, active_kernel
from repro.errors import DimensionMismatchError

#: Packed words per chunk when deriving edge columns (512 KB of block,
#: at most 4 MB unpacked).
_COLUMN_CHUNK_WORDS = 1 << 16


def _members(vec: Bitset, indices: np.ndarray) -> np.ndarray:
    """``vec``'s bit at each of ``indices``, as a boolean array."""
    words = vec.words[indices // _WORD_BITS]
    shifts = (indices % _WORD_BITS).astype(np.uint64)
    return ((words >> shifts) & np.uint64(1)).astype(bool)


class AdjacencyMatrix:
    """One direction (forward or backward) of a label's adjacency.

    ``rows[i]`` is the bitset of nodes reachable from ``i`` via one
    edge of this label and direction.  ``summary`` is the paper's
    ``f_a`` / ``b_a`` vector (Eq. (13)): bit ``i`` is set iff row ``i``
    is non-empty.
    """

    __slots__ = (
        "n", "rows", "summary", "n_edges",
        "_packed", "_row_nodes", "_row_index", "_word_idx", "_bit_shift",
    )

    def __init__(self, n: int):
        self.n = n
        self.rows: Dict[int, Bitset] = {}
        self.summary = Bitset.zeros(n)
        self.n_edges = 0
        self._packed: np.ndarray | None = None
        self._row_nodes: np.ndarray | None = None
        self._row_index: np.ndarray | None = None
        self._word_idx: np.ndarray | None = None
        self._bit_shift: np.ndarray | None = None

    def add(self, src: int, dst: int) -> None:
        """Record an edge src -> dst (in this direction's orientation)."""
        row = self.rows.get(src)
        if row is None:
            row = Bitset.zeros(self.n)
            self.rows[src] = row
            self.summary.add(src)
        if dst not in row:
            row.add(dst)
            self.n_edges += 1
            self._packed = None  # packed block is stale

    # -- packed layout -------------------------------------------------

    @property
    def is_packed(self) -> bool:
        return self._packed is not None

    def pack(self) -> None:
        """Build the contiguous row block and the node -> row index.

        Idempotent; called once per matrix from ``Graph.matrices()``
        and lazily from the products.  The dict rows are rebound to
        views into the block so both layouts share the same words.
        """
        if self._packed is not None:
            return
        n_words = _word_count(self.n)
        nodes = np.fromiter(sorted(self.rows), dtype=np.int64,
                            count=len(self.rows))
        packed = np.empty((nodes.size, n_words), dtype=np.uint64)
        for position, node in enumerate(nodes.tolist()):
            packed[position] = self.rows[node].words
            self.rows[node] = Bitset(self.n, packed[position])
        row_index = np.full(self.n, -1, dtype=np.int64)
        row_index[nodes] = np.arange(nodes.size, dtype=np.int64)
        self._row_nodes = nodes
        self._row_index = row_index
        # Per packed row: which word of a vector holds its node's bit
        # and how far to shift it down — the dense-vector row test.
        self._word_idx = nodes // _WORD_BITS
        self._bit_shift = (nodes % _WORD_BITS).astype(np.uint64)
        self._packed = packed

    def _selected_block(self, vec: Bitset) -> np.ndarray:
        """Packed rows whose node's bit is set in ``vec``.

        Sparse vectors go through their cached set-bit list (one
        gather + one filter, O(popcount)); dense vectors test each
        indexed node's bit directly (O(n_rows)) — whichever side is
        smaller decides.
        """
        if vec.count() < self._row_nodes.size:
            positions = self._row_index[vec.iter_ones()]
            return self._packed[positions[positions >= 0]]
        selected = (vec.words[self._word_idx] >> self._bit_shift) & np.uint64(1)
        return self._packed[selected != 0]

    # -- logical accessors ---------------------------------------------

    def edge_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every set bit as ``(row node, column)`` int64 columns,
        sorted by row node, then column.

        Works through the packed block a chunk of rows at a time and
        unpacks only its non-zero words, so no temporary grows past a
        few megabytes however dense the label is.
        """
        self.pack()
        block, nodes = self._packed, self._row_nodes
        if nodes.size == 0 or block.shape[1] == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        step = max(1, _COLUMN_CHUNK_WORDS // block.shape[1])
        sources, targets = [], []
        for start in range(0, nodes.size, step):
            chunk = block[start:start + step]
            rows, words = np.nonzero(chunk)
            bits = np.unpackbits(
                np.ascontiguousarray(chunk[rows, words]).view(np.uint8),
                bitorder="little",
            ).reshape(rows.size, _WORD_BITS)
            hit, bit = np.nonzero(bits)
            sources.append(nodes[start + rows[hit]])
            targets.append(words[hit] * _WORD_BITS + bit)
        return (
            np.concatenate(sources).astype(np.int64, copy=False),
            np.concatenate(targets).astype(np.int64, copy=False),
        )

    def row(self, i: int) -> Bitset | None:
        """The row of node ``i`` or None when it is all-zero."""
        return self.rows.get(i)

    def successors(self, i: int) -> Iterable[int]:
        row = self.rows.get(i)
        return iter(row) if row is not None else iter(())

    def has_edge(self, src: int, dst: int) -> bool:
        row = self.rows.get(src)
        return row is not None and dst in row

    def density(self) -> float:
        """Fraction of set bits; the sparsity signal for heuristics."""
        if self.n == 0:
            return 0.0
        return self.n_edges / float(self.n * self.n)

    # -- products ------------------------------------------------------

    def product_rowwise(self, vec: Bitset) -> Bitset:
        """``vec x_b A`` by OR-ing the rows selected by ``vec``."""
        if vec.nbits != self.n:
            raise DimensionMismatchError(
                f"vector width {vec.nbits} != matrix size {self.n}"
            )
        if active_kernel() != REFERENCE:
            # Both vectorized kernels (packed and batched) share the
            # per-matrix block product; "batched" only changes how the
            # solver groups whole rounds (see repro.core.batched).
            self.pack()
            block = self._selected_block(vec)
            if block.shape[0] == 0:
                return Bitset.zeros(self.n)
            return Bitset._wrap(self.n, np.bitwise_or.reduce(block, axis=0))
        out = Bitset.zeros(self.n)
        # Only nodes with a row can contribute; pre-filter via summary.
        if not vec.intersects(self.summary):
            return out
        for i in (vec & self.summary).iter_ones():
            out |= self.rows[int(i)]
        return out


class LabelMatrixPair:
    """Forward and backward adjacency of a single label, kept in sync.

    The backward matrix is exactly the transpose of the forward one,
    which is what makes the column-wise product cheap: column ``j`` of
    ``F_a`` is row ``j`` of ``B_a`` and vice versa.
    """

    __slots__ = ("n", "forward", "backward", "_columns")

    def __init__(self, n: int):
        self.n = n
        self.forward = AdjacencyMatrix(n)
        self.backward = AdjacencyMatrix(n)
        self._columns: Tuple[np.ndarray, np.ndarray] | None = None

    def add_edge(self, src: int, dst: int) -> None:
        self.forward.add(src, dst)
        self.backward.add(dst, src)
        self._columns = None

    def edge_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The label's edges as sorted ``(s, o)`` int64 columns,
        derived from the forward block on first use and cached here
        (so a rebuilt or demoted pair drops them too)."""
        if self._columns is None:
            self._columns = self.forward.edge_columns()
        return self._columns

    def edge_mask(self, source: Bitset, target: Bitset) -> np.ndarray:
        """Boolean mask over :meth:`edge_columns`: the edges ``(s, o)``
        with ``s`` in ``source`` and ``o`` in ``target``."""
        s, o = self.edge_columns()
        return _members(source, s) & _members(target, o)

    def pack(self) -> "LabelMatrixPair":
        """Pack both directions (idempotent); returns self."""
        self.forward.pack()
        self.backward.pack()
        return self

    @property
    def n_edges(self) -> int:
        return self.forward.n_edges

    def product(
        self,
        vec: Bitset,
        direction: str,
        mask: Bitset | None = None,
        strategy: str = "auto",
    ) -> Bitset:
        """``vec x_b F_a`` (direction='forward') or ``vec x_b B_a``.

        When ``mask`` is given, the result is additionally intersected
        with it — that is exactly the solver's use (the product result
        is always ANDed into the target's candidate vector), and what
        makes the column-wise strategy worthwhile.

        ``strategy`` is one of ``"row"``, ``"column"``, ``"auto"``.
        Column-wise evaluation requires a mask.
        """
        if direction == "forward":
            primary, dual = self.forward, self.backward
        elif direction == "backward":
            primary, dual = self.backward, self.forward
        else:
            raise ValueError(f"unknown direction: {direction!r}")

        if strategy == "auto":
            if mask is not None and mask.count() < vec.count():
                strategy = "column"
            else:
                strategy = "row"

        if strategy == "row":
            out = primary.product_rowwise(vec)
            if mask is not None:
                out &= mask
            return out

        if strategy == "column":
            if mask is None:
                raise ValueError("column-wise product requires a mask")
            # result(j) = 1 iff dual.row(j) intersects vec, for j in mask.
            if active_kernel() != REFERENCE:
                dual.pack()
                candidates = mask.iter_ones()
                positions = dual._row_index[candidates]
                with_rows = positions >= 0
                candidates = candidates[with_rows]
                if candidates.size == 0:
                    return Bitset.zeros(self.n)
                block = dual._packed[positions[with_rows]]
                hits = np.bitwise_and(block, vec.words).any(axis=1)
                return Bitset.from_indices(self.n, candidates[hits])
            out = Bitset.zeros(self.n)
            candidates = mask & dual.summary
            for j in candidates.iter_ones():
                if dual.rows[int(j)].intersects(vec):
                    out.add(int(j))
            return out

        raise ValueError(f"unknown strategy: {strategy!r}")


def build_label_matrices(
    n: int, edges: Iterable[Tuple[int, str, int]]
) -> Dict[str, LabelMatrixPair]:
    """Build one :class:`LabelMatrixPair` per label from integer triples."""
    matrices: Dict[str, LabelMatrixPair] = {}
    for src, label, dst in edges:
        pair = matrices.get(label)
        if pair is None:
            pair = LabelMatrixPair(n)
            matrices[label] = pair
        pair.add_edge(src, dst)
    return matrices
