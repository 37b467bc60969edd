"""Bit-vector / bit-matrix kernel (paper Sect. 3.2).

Public surface:

* :class:`Bitset` — fixed-width mutable bitsets over uint64 words,
  with cached popcounts.
* :class:`AdjacencyMatrix` — one direction of a label's adjacency in
  sorted CSR form; a dense row block is derived on request.
* :class:`LabelMatrixPair` — forward+backward matrices of one label.
* :func:`build_label_matrices` / :func:`label_matrices_from_columns`
  — construct all label matrices at once, from integer triples or
  from aligned id columns.
* :class:`BatchedBlockSet` — all matrices' dense rows concatenated
  into one block with per-label offsets (the ``batched`` kernel's
  whole-round product substrate).
* :func:`active_kernel` / :func:`set_kernel` / :func:`use_kernel` —
  the ``packed`` vs ``batched`` vs ``reference`` product-kernel
  switch.
"""

from repro.bitvec.bitset import Bitset
from repro.bitvec.kernel import (
    BATCHED,
    BatchedBlockSet,
    KERNELS,
    PACKED,
    REFERENCE,
    active_kernel,
    set_kernel,
    use_kernel,
)
from repro.bitvec.matrix import (
    CSR,
    AdjacencyMatrix,
    LabelMatrixPair,
    NO_EDGES,
    build_label_matrices,
    csr_from_sorted_columns,
    label_matrices_from_columns,
)

__all__ = [
    "Bitset",
    "AdjacencyMatrix",
    "LabelMatrixPair",
    "CSR",
    "NO_EDGES",
    "build_label_matrices",
    "csr_from_sorted_columns",
    "label_matrices_from_columns",
    "BatchedBlockSet",
    "KERNELS",
    "PACKED",
    "BATCHED",
    "REFERENCE",
    "active_kernel",
    "set_kernel",
    "use_kernel",
]
