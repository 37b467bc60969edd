"""Edge-labeled directed graphs (paper Sect. 2).

A :class:`Graph` is a triple ``(V, Sigma, E)`` with a finite node set,
a finite label alphabet, and a labeled edge relation
``E subseteq V x Sigma x V``.  Nodes carry arbitrary hashable names;
internally every node gets a dense integer index (first seen, first
numbered) so the bitvec kernel can address them.

The graph is a builder over one edge representation: adding an edge
appends its source index, label code and target index to three int64
columns (``array('q')``; labels are coded in first-seen order).  The
per-label forward/backward adjacency ``F_a`` / ``B_a`` is built from
those columns on first read, as sorted CSR :class:`LabelMatrixPair`
(repeated edges count once), and every read — edge count, membership,
iteration, successors and predecessors — answers from it.  A loaded
graph thus holds no Python container per edge or per node beyond the
node dictionary.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.bitvec import (
    CSR,
    Bitset,
    LabelMatrixPair,
    label_matrices_from_columns,
)
from repro.errors import GraphError

Edge = Tuple[Hashable, str, Hashable]


class Graph:
    """A finite edge-labeled directed graph with named nodes."""

    def __init__(self):
        self._index: Dict[Hashable, int] = {}
        self._names: List[Hashable] = []
        #: label -> code, in first-seen order.
        self._codes: Dict[str, int] = {}
        #: The appended edge columns (source, label code, target).
        self._sources = array("q")
        self._label_codes = array("q")
        self._targets = array("q")
        self._matrices: Dict[str, LabelMatrixPair] | None = None
        self._batched = None

    # -- construction ----------------------------------------------------

    def add_node(self, name: Hashable) -> int:
        """Add a node (idempotent); return its dense index."""
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._index[name] = idx
            self._names.append(name)
            self._matrices = None
            self._batched = None
        return idx

    def add_edge(self, src: Hashable, label: str, dst: Hashable) -> None:
        """Add the labeled edge ``(src, label, dst)``, creating nodes.
        Adding an edge twice is harmless: the matrices count it once."""
        if label is None or (isinstance(label, str) and not label):
            raise GraphError(f"edge label must be non-empty: {label!r}")
        s = self.add_node(src)
        d = self.add_node(dst)
        code = self._codes.setdefault(label, len(self._codes))
        self._sources.append(s)
        self._label_codes.append(code)
        self._targets.append(d)
        self._matrices = None
        self._batched = None

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Graph":
        graph = cls()
        for src, label, dst in edges:
            graph.add_edge(src, label, dst)
        return graph

    # -- basic accessors ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._names)

    @property
    def n_edges(self) -> int:
        return sum(pair.n_edges for pair in self.matrices().values())

    @property
    def labels(self) -> Set[str]:
        """The set of labels actually used by at least one edge."""
        return set(self._codes)

    def nodes(self) -> Iterator[Hashable]:
        return iter(self._names)

    def node_name(self, index: int) -> Hashable:
        return self._names[index]

    def node_index(self, name: Hashable) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GraphError(f"unknown node: {name!r}") from None

    def has_node(self, name: Hashable) -> bool:
        return name in self._index

    def has_edge(self, src: Hashable, label: str, dst: Hashable) -> bool:
        s = self._index.get(src)
        d = self._index.get(dst)
        pair = self.matrices().get(label)
        if s is None or d is None or pair is None:
            return False
        return pair.forward.has_edge(s, d)

    def edges(self) -> Iterator[Edge]:
        """Iterate edges as (src_name, label, dst_name): labels in
        first-seen order, each label's edges sorted by index."""
        names = self._names
        for s, label, d in self.indexed_edges():
            yield (names[s], label, names[d])

    def indexed_edges(self) -> Iterator[Tuple[int, str, int]]:
        """Iterate edges as integer-index triples, in :meth:`edges`
        order."""
        for label, pair in self.matrices().items():
            subjects, objects = pair.edge_columns()
            for s, d in zip(subjects.tolist(), objects.tolist()):
                yield (s, label, d)

    # -- adjacency (the paper's F_a and B_a maps) ---------------------------

    def _neighbours(
        self, name: Hashable, label: str, direction: str
    ) -> Set[Hashable]:
        idx = self.node_index(name)
        pair = self.matrices().get(label)
        if pair is None:
            return set()
        matrix = pair.forward if direction == "forward" else pair.backward
        return {self._names[i] for i in matrix.successors(idx).tolist()}

    def successors(self, name: Hashable, label: str) -> Set[Hashable]:
        """``F_a(v)``: targets of label-``a`` edges leaving ``v``."""
        return self._neighbours(name, label, "forward")

    def predecessors(self, name: Hashable, label: str) -> Set[Hashable]:
        """``B_a(v)``: sources of label-``a`` edges entering ``v``."""
        return self._neighbours(name, label, "backward")

    def out_edges(self, name: Hashable) -> Set[Tuple[str, Hashable]]:
        return {
            (label, other)
            for label in self._codes
            for other in self._neighbours(name, label, "forward")
        }

    def in_edges(self, name: Hashable) -> Set[Tuple[str, Hashable]]:
        return {
            (label, other)
            for label in self._codes
            for other in self._neighbours(name, label, "backward")
        }

    # -- bit-matrix view ------------------------------------------------------

    def matrices(self) -> Dict[str, LabelMatrixPair]:
        """Per-label adjacency matrices in sorted CSR form, labels in
        first-seen order, built lazily from the edge columns (two
        sorts over the edge set) and cached.

        No dense row block is built here: the solver's products run on
        the CSR lists, and a dense block is derived per matrix only
        when a consumer asks for it (see :mod:`repro.bitvec.matrix`).
        Further edge insertions invalidate this cache, so handing out
        the built matrices is safe.
        """
        if self._matrices is None:
            self._matrices = label_matrices_from_columns(
                self.n_nodes,
                list(self._codes),
                np.frombuffer(self._sources, dtype=np.int64),
                np.frombuffer(self._label_codes, dtype=np.int64),
                np.frombuffer(self._targets, dtype=np.int64),
            )
        return self._matrices

    def label_matrix(self, label: str) -> LabelMatrixPair | None:
        return self.matrices().get(label)

    # -- column source of the join store ---------------------------------

    def label_csr(self, label: str, direction: str) -> CSR | None:
        """One direction of the label's pair, as its CSR."""
        pair = self.matrices().get(label)
        return None if pair is None else pair.csr(direction)

    def label_counts(self, label: str) -> Tuple[int, int, int]:
        """``(edges, distinct subjects, distinct objects)``."""
        pair = self.matrices().get(label)
        return (0, 0, 0) if pair is None else pair.label_counts()

    def batched_blocks(self):
        """The graph's shared multi-label block set (``batched`` kernel).

        Created empty and filled label-by-label as solver rounds touch
        matrices; cached so repeated solves over the same graph reuse
        the concatenated rows.  Any mutation invalidates it together
        with the matrix cache.
        """
        if self._batched is None:
            from repro.bitvec.kernel import BatchedBlockSet

            self._batched = BatchedBlockSet(self.n_nodes)
        return self._batched

    def nodes_bitset(self, names: Iterable[Hashable]) -> Bitset:
        """Bitset over this graph's index space from node names."""
        return Bitset.from_indices(
            self.n_nodes, (self.node_index(n) for n in names)
        )

    def __repr__(self) -> str:
        return f"Graph(|V|={self.n_nodes}, |E|={self.n_edges}, |Sigma|={len(self._codes)})"
