"""Per-label adjacency matrices (Sect. 3.2 of the paper).

For every edge label ``a`` the paper stores two adjacency matrices
``F_a`` (forward) and ``B_a`` (backward) and keeps them sparse.  Each
direction here is held in sorted CSR form over its non-empty rows:

* ``_row_nodes`` — the nodes owning a non-empty row, ascending; they
  are the set bits of the summary vector (Eq. (13));
* ``_indptr`` / ``_indices`` — the successors of ``_row_nodes[p]`` are
  ``_indices[_indptr[p]:_indptr[p + 1]]``, ascending.

The forward CSR *is* the label's sorted ``(s, o)`` edge columns:
``o = _indices`` and ``s = repeat(_row_nodes, diff(_indptr))``, the
latter cached beside the CSR on first request and dropped with it.

The CSR is the only canonical form: a matrix is built from sorted
edge columns (:meth:`AdjacencyMatrix.from_sorted_columns`, which
:func:`build_label_matrices` and the overlay use) or adopts a
snapshot's arrays (:meth:`AdjacencyMatrix.from_csr`), and is never
edited in place.  A dense layout is derived from the CSR on request
and then cached: a dict from node index to a :class:`Bitset` row, the
rows being views into one contiguous ``(n_rows, n_words)`` ``uint64``
block (:meth:`AdjacencyMatrix.pack`).  Only the ``"reference"`` and
``"batched"`` kernels, the gap encoder and the retained-triples
specification read it.

The core operation is the bit-vector x bit-matrix product (Eq. (9)):

    ``(chi x_b F_a)(j) = 1`` iff exists ``i`` with ``chi(i) = 1`` and
    ``F_a(i, j) = 1``.

Two evaluation strategies are provided, matching Sect. 3.3:

* *row-wise* — gather the successor lists of the set bits of ``chi``
  and scatter them into a fresh vector; cost is proportional to
  ``popcount(chi)`` and those rows' degrees.
* *column-wise* — restricted to a target mask, gather each masked
  candidate's list in the *dual* matrix (column ``j`` of ``F_a`` is
  row ``j`` of ``B_a``) and keep the candidates with at least one
  member of ``chi``; cost is proportional to ``popcount(mask)`` and
  those rows' degrees.

Both return identical results; the solver picks per evaluation.  On
the ``"packed"`` kernel (see :mod:`repro.bitvec.kernel`) both are a
handful of NumPy calls over the CSR arrays — no Python-level loop per
row or column and no |V|-bit row touched.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.bitvec.bitset import Bitset, _WORD_BITS, _word_count
from repro.bitvec.kernel import REFERENCE, active_kernel
from repro.errors import DimensionMismatchError

def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


#: One direction's sorted CSR: ``(row nodes, indptr, indices)``.
CSR = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: The ``(s, o)`` columns of a label without edges.
NO_EDGES: Tuple[np.ndarray, np.ndarray] = (
    _frozen(np.empty(0, dtype=np.int64)),
    _frozen(np.empty(0, dtype=np.int64)),
)
#: The ``indptr`` of a CSR without rows.
_NO_ROWS_INDPTR = _frozen(np.zeros(1, dtype=np.int64))


def _check_range(n: int, *columns: np.ndarray) -> None:
    for column in columns:
        if column.size and (column.min() < 0 or column.max() >= n):
            raise IndexError(f"node index out of range for {n} nodes")


def csr_from_sorted_columns(rows: np.ndarray, columns: np.ndarray) -> CSR:
    """The CSR of int64 edge columns sorted by ``(row, column)``
    without repeats: one run of ``rows`` per CSR row."""
    if rows.size:
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    else:
        starts = np.empty(0, dtype=np.int64)
    return rows[starts], np.append(starts, rows.size), columns


def _gather(
    indptr: np.ndarray, indices: np.ndarray, positions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR lists of rows ``positions``, concatenated, and each
    list's length."""
    if positions.size == indptr.size - 1:  # every row: no gather
        return indices, indptr[1:] - indptr[:-1]
    starts = indptr[positions]
    lengths = indptr[positions + 1] - starts
    if positions.size == 1:
        start = int(starts[0])
        return indices[start:start + int(lengths[0])], lengths
    ends = np.cumsum(lengths)
    flat = np.repeat(starts - ends + lengths, lengths)
    flat += np.arange(flat.size)
    return indices[flat], lengths


def _block_from_csr(
    n: int, indptr: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """The packed ``(n_rows, n_words)`` block of a CSR matrix."""
    n_words = _word_count(n)
    block = np.zeros((indptr.size - 1, n_words), dtype=np.uint64)
    if indices.size:
        positions = np.repeat(
            np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr)
        )
        # Ascending (row, column) pairs give ascending word keys, so
        # each distinct word is one contiguous run of bits to OR.
        keys = positions * n_words + indices // _WORD_BITS
        bits = np.left_shift(
            np.uint64(1), (indices % _WORD_BITS).astype(np.uint64)
        )
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        block.reshape(-1)[keys[first]] = np.bitwise_or.reduceat(bits, first)
    return block


class AdjacencyMatrix:
    """One direction (forward or backward) of a label's adjacency.

    Row ``i`` is the set of nodes reachable from ``i`` via one edge of
    this label and direction.  ``summary`` is the paper's ``f_a`` /
    ``b_a`` vector (Eq. (13)): bit ``i`` is set iff row ``i`` is
    non-empty.
    """

    __slots__ = (
        "n", "summary", "n_edges", "_rows",
        "_packed", "_row_nodes", "_row_index", "_word_idx", "_bit_shift",
        "_indptr", "_indices", "_entry_rows",
    )

    def __init__(self, n: int):
        """An empty ``n x n`` matrix (a CSR without rows)."""
        self.n = n
        self.summary = Bitset.zeros(n)
        self.n_edges = 0
        self._row_nodes: np.ndarray = NO_EDGES[0]
        self._indptr: np.ndarray = _NO_ROWS_INDPTR
        self._indices: np.ndarray = NO_EDGES[1]
        self._entry_rows: np.ndarray | None = None
        self._rows: Dict[int, Bitset] | None = None
        self._packed: np.ndarray | None = None
        self._row_index: np.ndarray | None = None
        self._word_idx: np.ndarray | None = None
        self._bit_shift: np.ndarray | None = None

    @classmethod
    def from_csr(
        cls,
        n: int,
        row_nodes: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "AdjacencyMatrix":
        """A matrix that adopts sorted int64 CSR arrays as they are
        (no copy, no check; a snapshot's views arrive checked).  No
        dense row is built."""
        out = cls(n)
        out._row_nodes = _frozen(row_nodes)
        out._indptr = _frozen(indptr)
        out._indices = _frozen(indices)
        out.summary = Bitset.from_indices(n, row_nodes)
        out.n_edges = int(indices.size)
        return out

    @classmethod
    def from_sorted_columns(
        cls, n: int, rows: np.ndarray, columns: np.ndarray
    ) -> "AdjacencyMatrix":
        """A CSR matrix over int64 edge columns sorted by
        ``(row, column)`` without repeats."""
        _check_range(n, rows, columns)
        return cls.from_csr(n, *csr_from_sorted_columns(rows, columns))

    # -- derived layouts -------------------------------------------------

    @property
    def is_packed(self) -> bool:
        return self._packed is not None

    @property
    def nbytes(self) -> int:
        """Bytes of every array this matrix caches (both layouts)."""
        arrays = (
            self._packed, self._row_nodes, self._row_index,
            self._word_idx, self._bit_shift, self._indptr, self._indices,
            self._entry_rows,
        )
        return sum(a.nbytes for a in arrays if a is not None)

    @property
    def rows(self) -> Dict[int, Bitset]:
        """Node -> dense row; derived from the CSR on first use."""
        if self._rows is None:
            self.pack()
        return self._rows

    def pack(self) -> None:
        """Derive the contiguous row block, its dense rows (views into
        the block) and the node -> row index from the CSR.  Idempotent.
        """
        if self._packed is not None:
            return
        n = self.n
        nodes = self._row_nodes
        packed = _block_from_csr(n, self._indptr, self._indices)
        self._rows = {
            node: Bitset._wrap(n, packed[position])
            for position, node in enumerate(nodes.tolist())
        }
        row_index = np.full(n, -1, dtype=np.int64)
        row_index[nodes] = np.arange(nodes.size, dtype=np.int64)
        self._row_index = row_index
        # Per packed row: which word of a vector holds its node's bit
        # and how far to shift it down — the dense-vector row test.
        self._word_idx = nodes // _WORD_BITS
        self._bit_shift = (nodes % _WORD_BITS).astype(np.uint64)
        self._packed = packed

    def _csr(self) -> CSR:
        """``(row nodes, indptr, indices)``."""
        return self._row_nodes, self._indptr, self._indices

    def _positions(self, vec: Bitset) -> np.ndarray:
        """CSR positions of the rows whose node is set in ``vec``.

        Sparse vectors look their set bits up in the row nodes
        (O(popcount log n_rows)); others test each row node's bit
        (O(n_rows)).  A binary search costs some 16 gathers, which
        sets the crossover.
        """
        nodes = self._row_nodes
        if vec.count() * 16 < nodes.size:
            ones = vec.iter_ones()
            positions = np.searchsorted(nodes, ones)
            np.minimum(positions, nodes.size - 1, out=positions)
            return positions[nodes[positions] == ones]
        return vec.bits_at(nodes).nonzero()[0]

    # -- logical accessors ---------------------------------------------

    def edge_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every entry as ``(row node, column)`` int64 columns, sorted
        by row node, then column.  The row-node column is built once
        and cached with the CSR."""
        nodes, indptr, indices = self._csr()
        if self._entry_rows is None:
            self._entry_rows = _frozen(np.repeat(nodes, np.diff(indptr)))
        return self._entry_rows, indices

    def successors(self, i: int) -> np.ndarray:
        """Row ``i``'s CSR list (ascending; empty for an empty row)."""
        nodes, indptr, indices = self._row_nodes, self._indptr, self._indices
        position = int(nodes.searchsorted(i))
        if position == nodes.size or nodes[position] != i:
            return NO_EDGES[1]
        return indices[indptr[position]:indptr[position + 1]]

    def row(self, i: int) -> Bitset | None:
        """The row of node ``i`` or None when it is all-zero."""
        successors = self.successors(i)
        if successors.size == 0:
            return None
        return Bitset._scatter(self.n, successors)

    def has_edge(self, src: int, dst: int) -> bool:
        successors = self.successors(src)
        position = int(successors.searchsorted(dst))
        return position < successors.size and successors[position] == dst

    def density(self) -> float:
        """Fraction of set bits; the sparsity signal for heuristics."""
        if self.n == 0:
            return 0.0
        return self.n_edges / float(self.n * self.n)

    # -- products ------------------------------------------------------

    def product_rowwise(self, vec: Bitset) -> Bitset:
        """``vec x_b A``: the union of the rows selected by ``vec``."""
        if vec.nbits != self.n:
            raise DimensionMismatchError(
                f"vector width {vec.nbits} != matrix size {self.n}"
            )
        if active_kernel() != REFERENCE:
            # Both vectorized kernels (packed and batched) share the
            # CSR product; "batched" only changes how the solver
            # groups whole rounds (see repro.core.batched).
            _, indptr, indices = self._csr()
            positions = self._positions(vec)
            if positions.size == 0:
                return Bitset.zeros(self.n)
            targets, _ = _gather(indptr, indices, positions)
            return Bitset._scatter(self.n, targets)
        out = Bitset.zeros(self.n)
        # Only nodes with a row can contribute; pre-filter via summary.
        if not vec.intersects(self.summary):
            return out
        rows = self.rows
        for i in (vec & self.summary).iter_ones():
            out |= rows[int(i)]
        return out

    def product_columnwise(self, vec: Bitset, mask: Bitset) -> Bitset:
        """The members ``j`` of ``mask`` whose row ``j`` here
        intersects ``vec``.  Called on the dual of ``A``, this is the
        column-wise ``(vec x_b A) & mask``."""
        if active_kernel() != REFERENCE:
            nodes, indptr, indices = self._csr()
            positions = self._positions(mask)
            if positions.size == 0:
                return Bitset.zeros(self.n)
            lists, lengths = _gather(indptr, indices, positions)
            # Segment id of every gathered entry -> its candidate row.
            segments = np.repeat(np.arange(positions.size), lengths)
            keep = np.zeros(positions.size, dtype=bool)
            keep[segments[vec.bits_at(lists)]] = True
            return Bitset._scatter(self.n, nodes[positions[keep]])
        out = Bitset.zeros(self.n)
        rows = self.rows
        for j in (mask & self.summary).iter_ones():
            if rows[int(j)].intersects(vec):
                out.add(int(j))
        return out


class LabelMatrixPair:
    """Forward and backward adjacency of a single label, kept in sync.

    The backward matrix is exactly the transpose of the forward one,
    which is what makes the column-wise product cheap: column ``j`` of
    ``F_a`` is row ``j`` of ``B_a`` and vice versa.
    """

    __slots__ = ("n", "forward", "backward")

    def __init__(
        self,
        n: int,
        forward: AdjacencyMatrix | None = None,
        backward: AdjacencyMatrix | None = None,
    ):
        self.n = n
        self.forward = AdjacencyMatrix(n) if forward is None else forward
        self.backward = AdjacencyMatrix(n) if backward is None else backward

    def edge_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The label's edges as sorted ``(s, o)`` int64 columns: the
        forward CSR's lists, the row-node column cached beside them."""
        return self.forward.edge_columns()

    def csr(self, direction: str) -> CSR:
        """The ``"forward"`` or ``"backward"`` matrix's CSR, as held."""
        matrix = self.forward if direction == "forward" else self.backward
        return matrix._csr()

    def label_counts(self) -> Tuple[int, int, int]:
        """``(edges, distinct subjects, distinct objects)``: the edge
        count and the two directions' CSR row counts."""
        return (
            self.n_edges,
            int(self.forward._csr()[0].size),
            int(self.backward._csr()[0].size),
        )

    def pack(self) -> "LabelMatrixPair":
        """Pack both directions (idempotent); returns self."""
        self.forward.pack()
        self.backward.pack()
        return self

    @property
    def n_edges(self) -> int:
        return self.forward.n_edges

    @property
    def nbytes(self) -> int:
        """Bytes of every array both directions cache."""
        return self.forward.nbytes + self.backward.nbytes

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
            return dual.product_columnwise(vec, mask)

        raise ValueError(f"unknown strategy: {strategy!r}")


def build_label_matrices(
    n: int, edges: Iterable[Tuple[int, str, int]]
) -> Dict[str, LabelMatrixPair]:
    """Build one CSR :class:`LabelMatrixPair` per label from integer
    triples (repeated triples count once), labels in first-seen order.
    """
    codes: Dict[str, int] = {}
    flat = np.fromiter(
        chain.from_iterable(
            (s, codes.setdefault(label, len(codes)), d)
            for s, label, d in edges
        ),
        dtype=np.int64,
    ).reshape(-1, 3)
    return label_matrices_from_columns(
        n, list(codes), flat[:, 0], flat[:, 1], flat[:, 2]
    )


def label_matrices_from_columns(
    n: int,
    labels: List[str],
    sources: np.ndarray,
    codes: np.ndarray,
    targets: np.ndarray,
) -> Dict[str, LabelMatrixPair]:
    """One CSR :class:`LabelMatrixPair` per label from three aligned
    int64 edge columns; ``codes[k]`` indexes ``labels``, every label
    has an edge, and repeated edges count once.  The mapping keeps the
    order of ``labels``.

    Two sorts over the whole edge set give every label's forward and
    backward lists at once.
    """
    order = np.lexsort((targets, sources, codes))
    sources, codes, targets = sources[order], codes[order], targets[order]
    del order  # the sorted columns replace it
    fresh = np.r_[
        True,
        (sources[1:] != sources[:-1])
        | (targets[1:] != targets[:-1])
        | (codes[1:] != codes[:-1]),
    ]
    if not fresh.all():
        sources, codes, targets = (
            sources[fresh], codes[fresh], targets[fresh]
        )
    back = np.lexsort((sources, targets, codes))
    bounds = np.searchsorted(codes, np.arange(len(labels) + 1))
    matrices: Dict[str, LabelMatrixPair] = {}
    for code, label in enumerate(labels):
        lo, hi = bounds[code], bounds[code + 1]
        backward = back[lo:hi]
        matrices[label] = LabelMatrixPair(
            n,
            AdjacencyMatrix.from_sorted_columns(
                n, sources[lo:hi], targets[lo:hi]
            ),
            AdjacencyMatrix.from_sorted_columns(
                n, targets[backward], sources[backward]
            ),
        )
    return matrices
