"""Edge-labeled directed graphs (paper Sect. 2).

A :class:`Graph` is a triple ``(V, Sigma, E)`` with a finite node set,
a finite label alphabet, and a labeled edge relation
``E subseteq V x Sigma x V``.  Nodes carry arbitrary hashable names;
internally every node gets a dense integer index so the bitvec kernel
can address them, and per-label forward/backward adjacency maps
``F_a`` / ``B_a`` are maintained as :class:`LabelMatrixPair`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.bitvec import (
    NO_EDGES,
    Bitset,
    LabelMatrixPair,
    build_label_matrices,
)
from repro.errors import GraphError

Edge = Tuple[Hashable, str, Hashable]


class Graph:
    """A finite edge-labeled directed graph with named nodes."""

    def __init__(self):
        self._index: Dict[Hashable, int] = {}
        self._names: List[Hashable] = []
        self._edges: Set[Tuple[int, str, int]] = set()
        self._out: Dict[int, Set[Tuple[str, int]]] = {}
        self._in: Dict[int, Set[Tuple[str, int]]] = {}
        self._labels: Set[str] = set()
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
            self._out[idx] = set()
            self._in[idx] = set()
            self._matrices = None
            self._batched = None
        return idx

    def add_edge(self, src: Hashable, label: str, dst: Hashable) -> None:
        """Add the labeled edge ``(src, label, dst)``, creating nodes."""
        if label is None or (isinstance(label, str) and not label):
            raise GraphError(f"edge label must be non-empty: {label!r}")
        s = self.add_node(src)
        d = self.add_node(dst)
        triple = (s, label, d)
        if triple not in self._edges:
            self._edges.add(triple)
            self._out[s].add((label, d))
            self._in[d].add((label, s))
            self._labels.add(label)
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
        return len(self._edges)

    @property
    def labels(self) -> Set[str]:
        """The set of labels actually used by at least one edge."""
        return set(self._labels)

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
        if s is None or d is None:
            return False
        return (s, label, d) in self._edges

    def edges(self) -> Iterator[Edge]:
        """Iterate edges as (src_name, label, dst_name)."""
        for s, label, d in self._edges:
            yield (self._names[s], label, self._names[d])

    def indexed_edges(self) -> Iterator[Tuple[int, str, int]]:
        """Iterate edges as integer-index triples."""
        return iter(self._edges)

    # -- adjacency (the paper's F_a and B_a maps) ---------------------------

    def successors(self, name: Hashable, label: str) -> Set[Hashable]:
        """``F_a(v)``: targets of label-``a`` edges leaving ``v``."""
        idx = self.node_index(name)
        return {
            self._names[d] for (a, d) in self._out[idx] if a == label
        }

    def predecessors(self, name: Hashable, label: str) -> Set[Hashable]:
        """``B_a(v)``: sources of label-``a`` edges entering ``v``."""
        idx = self.node_index(name)
        return {
            self._names[s] for (a, s) in self._in[idx] if a == label
        }

    def out_edges(self, name: Hashable) -> Set[Tuple[str, Hashable]]:
        idx = self.node_index(name)
        return {(a, self._names[d]) for (a, d) in self._out[idx]}

    def in_edges(self, name: Hashable) -> Set[Tuple[str, Hashable]]:
        idx = self.node_index(name)
        return {(a, self._names[s]) for (a, s) in self._in[idx]}

    def out_degree(self, name: Hashable) -> int:
        return len(self._out[self.node_index(name)])

    def in_degree(self, name: Hashable) -> int:
        return len(self._in[self.node_index(name)])

    # -- integer-index adjacency (hot paths) --------------------------------

    def successors_idx(self, idx: int, label: str) -> Set[int]:
        return {d for (a, d) in self._out[idx] if a == label}

    def predecessors_idx(self, idx: int, label: str) -> Set[int]:
        return {s for (a, s) in self._in[idx] if a == label}

    def out_items_idx(self, idx: int) -> Set[Tuple[str, int]]:
        return self._out[idx]

    def in_items_idx(self, idx: int) -> Set[Tuple[str, int]]:
        return self._in[idx]

    # -- bit-matrix view ------------------------------------------------------

    def matrices(self) -> Dict[str, LabelMatrixPair]:
        """Per-label adjacency matrices in sorted CSR form, built
        lazily from the edge columns (two sorts over the edge set) and
        cached.

        No dense row block is built here: the solver's products run on
        the CSR lists, and a dense block is derived per matrix only
        when a consumer asks for it (see :mod:`repro.bitvec.matrix`).
        Further edge insertions invalidate this cache, so handing out
        the built matrices is safe.
        """
        if self._matrices is None:
            self._matrices = build_label_matrices(self.n_nodes, self._edges)
        return self._matrices

    def label_matrix(self, label: str) -> LabelMatrixPair | None:
        return self.matrices().get(label)

    # -- column source of the join store ---------------------------------

    def edge_columns(self, label: str) -> Tuple[np.ndarray, np.ndarray]:
        """The label's sorted ``(s, o)`` columns (its forward CSR)."""
        pair = self.matrices().get(label)
        return NO_EDGES if pair is None else pair.edge_columns()

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

    # -- misc -----------------------------------------------------------------

    def subgraph_triples(
        self, keep: Set[Tuple[int, str, int]]
    ) -> "Graph":
        """A new graph containing exactly the given indexed edges."""
        out = Graph()
        for s, label, d in keep:
            out.add_edge(self._names[s], label, self._names[d])
        return out

    def __repr__(self) -> str:
        return f"Graph(|V|={self.n_nodes}, |E|={self.n_edges}, |Sigma|={len(self._labels)})"
