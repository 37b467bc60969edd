"""Kernel selection for the bit-matrix products (ablation switch).

Three implementations of the Eq. (9) bit-vector x bit-matrix products
coexist:

* ``"packed"`` (default) — products over each
  :class:`~repro.bitvec.matrix.AdjacencyMatrix`'s sorted CSR lists:
  row-wise, gather the successor lists of the source's set bits and
  scatter them into the result; column-wise, gather each masked
  candidate's list in the dual matrix and keep the candidates with a
  hit — a handful of NumPy calls per (label, direction) inequality,
  no |V|-bit row touched.
* ``"batched"`` — every (label, direction) matrix contributes its
  dense rows (derived from the CSR on first use) to one concatenated
  :class:`BatchedBlockSet` block with per-label offsets, and the SOI
  solver evaluates *a whole round of inequalities* as one gather plus
  one segmented reduce (see :mod:`repro.core.batched`), amortizing
  the per-call NumPy dispatch overhead that dominates small queries.
  Individual products (pruning, reconstruction, the dynamic ordering)
  fall back to the packed implementation.
* ``"reference"`` — the seed implementation: one Python-level
  :class:`~repro.bitvec.bitset.Bitset` per row, products as Python
  loops.  Kept verbatim so property tests can assert bit-identical
  results.

The process starts on ``packed``.  A session picks its kernel with
``repro.ExecutionProfile(kernel=...)`` / the ``--kernel`` CLI flag;
the process-wide selection changes with :func:`set_kernel` or the
:func:`use_kernel` context manager (unknown names raise, so an
ablation never silently measures the wrong implementation).  The
switch is consulted on every product call, so matrices built under
one kernel answer correctly under the other — each matrix derives
whichever layout (CSR lists or dense rows) the active kernel reads.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, Tuple

import numpy as np

PACKED = "packed"
BATCHED = "batched"
REFERENCE = "reference"
KERNELS = (PACKED, BATCHED, REFERENCE)


_active = PACKED


def active_kernel() -> str:
    """Name of the kernel the products currently run on."""
    return _active


def set_kernel(name: str) -> str:
    """Select a kernel; returns the previously active one."""
    global _active
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choose from {KERNELS}")
    previous = _active
    _active = name
    return previous


@contextlib.contextmanager
def use_kernel(name: str) -> Iterator[str]:
    """Temporarily switch kernels."""
    previous = set_kernel(name)
    try:
        yield name
    finally:
        set_kernel(previous)


class BatchEntry:
    """Where one (label, orientation) matrix lives inside the batch.

    ``offset`` is the matrix's first row in the concatenated block;
    ``row_index`` is *shared* with the source
    :class:`~repro.bitvec.matrix.AdjacencyMatrix` (node -> local
    packed row, ``-1`` for all-zero rows), so positions into the
    batch are ``row_index[nodes] + offset`` after filtering the
    ``-1`` sentinels.
    """

    __slots__ = ("offset", "n_rows", "row_index", "packed")

    def __init__(self, offset: int, row_index: np.ndarray,
                 packed: np.ndarray):
        self.offset = offset
        self.n_rows = packed.shape[0]
        self.row_index = row_index
        self.packed = packed  # identity anchor for staleness checks


class BatchedBlockSet:
    """All matrices' packed rows concatenated into one ``uint64`` block.

    The ``"batched"`` kernel's central data structure: instead of one
    ``(n_rows, n_words)`` block per (label, direction) matrix, every
    matrix's rows are appended into a single shared
    ``(total_rows, n_words)`` array, keyed by ``(label, orientation)``
    with per-entry row offsets (the ragged-row-count layout).  A whole
    round of Eq.-(9) products then needs just one fancy-index gather
    into this block plus one segmented reduce, regardless of how many
    labels the round touches.

    Entries are added lazily through :meth:`entry` — the first solver
    round that touches a label appends its rows, so a
    :class:`~repro.storage.tiered.TieredGraphView` promotion slots its
    label into the batch *without re-stacking* the labels already
    present (appends grow the block geometrically, amortized O(1) per
    row).  An entry whose key now holds another matrix (a rebuilt
    pair) is detected by identity on the packed array and appended
    afresh; the stale region is left behind as slack.

    Nothing is ever removed from a block.  Its owner drops the whole
    set when the adjacency it mirrors changes (a mutated
    :class:`~repro.graph.graph.Graph`, an overlay write) and the next
    batched solve starts a fresh one.
    """

    __slots__ = ("nbits", "n_words", "_block", "_used", "_entries")

    def __init__(self, nbits: int):
        self.nbits = nbits
        # Matches bitset._word_count without importing it (kernel.py
        # must stay import-light: bitset/matrix import it back).
        self.n_words = (nbits + 63) // 64
        self._block = np.empty((0, self.n_words), dtype=np.uint64)
        self._used = 0
        self._entries: Dict[Tuple[str, str], BatchEntry] = {}

    @property
    def block(self) -> np.ndarray:
        """The concatenated row block (re-read after ``entry`` calls:
        appends may have grown it into a new allocation)."""
        return self._block

    @property
    def n_rows(self) -> int:
        """Rows currently occupied (including stale slack)."""
        return self._used

    @property
    def n_entries(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes held by the concatenated block (capacity included)."""
        return self._block.nbytes

    def _reserve(self, extra: int) -> None:
        need = self._used + extra
        capacity = self._block.shape[0]
        if need <= capacity:
            return
        grown = np.empty(
            (max(need, 2 * capacity, 256), self.n_words), dtype=np.uint64
        )
        grown[: self._used] = self._block[: self._used]
        self._block = grown

    def entry(self, label: str, orientation: str, matrix) -> BatchEntry:
        """The batch entry of ``matrix``, appending it on first touch.

        ``matrix`` is the :class:`AdjacencyMatrix` stored under
        ``(label, orientation)`` — packing it here is idempotent.  A
        matrix whose packed block changed since it was appended (or a
        brand-new matrix under a known key) replaces its entry.
        """
        key = (label, orientation)
        entry = self._entries.get(key)
        if entry is not None and entry.packed is matrix._packed:
            return entry
        matrix.pack()
        packed = matrix._packed
        self._reserve(packed.shape[0])
        offset = self._used
        self._block[offset : offset + packed.shape[0]] = packed
        self._used = offset + packed.shape[0]
        entry = BatchEntry(offset, matrix._row_index, packed)
        self._entries[key] = entry
        return entry

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return (
            f"BatchedBlockSet(nbits={self.nbits}, "
            f"entries={len(self._entries)}, rows={self._used})"
        )
