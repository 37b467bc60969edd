"""Per-query database pruning via dual simulation (paper Sect. 5).

After solving the SOI of a query, a database triple ``(o, a, o')`` is
*retained* iff some SOI edge ``(v, a, w)`` has ``o`` in the solution
row of ``v`` and ``o'`` in the row of ``w``.  Theorem 2 guarantees
that every triple participating in any SPARQL match is retained, so
evaluating the query on the pruned database loses nothing.

:func:`prune` evaluates that rule column-wise: per label, one boolean
mask over the label's sorted ``(s, o)`` edge columns, OR-ed across the
SOI edges and union branches that use the label.
:func:`retained_triples` is the same rule bit by bit, kept as the
specification the tests compare against.  The kept columns are the
pruned store's column source (:meth:`PruneResult.to_store`): a
label's forward CSR as they are, its backward CSR after one stable
sort by object, each built when the join first reads that direction.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.bitvec import CSR, NO_EDGES, csr_from_sorted_columns
from repro.core.solver import SolverResult
from repro.graph.database import GraphDatabase
from repro.graph.graph import Graph
from repro.rdf.dictionary import TermDictionary
from repro.store.triple_store import TripleStore

IndexedTriple = Tuple[int, str, int]  # data-graph node indices + label
Columns = Tuple[np.ndarray, np.ndarray]  # sorted (s, o) node indices

#: graph -> its node names in index order, for ``to_store()`` without a
#: store.  Node index spaces only grow, so a length check keeps an
#: entry valid.
_NODE_DICTIONARIES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _node_dictionary(data: Graph) -> TermDictionary:
    nodes = _NODE_DICTIONARIES.get(data)
    if nodes is None or len(nodes) != data.n_nodes:
        nodes = TermDictionary.from_terms(data.nodes())
        _NODE_DICTIONARIES[data] = nodes
    return nodes


@dataclass
class PruneResult:
    """Triples retained by dual simulation pruning, per label."""

    data: Graph
    columns: Dict[str, Columns]
    n_triples_before: int
    elapsed: float

    @property
    def n_triples_after(self) -> int:
        return sum(s.size for s, _ in self.columns.values())

    @property
    def pruned_fraction(self) -> float:
        """Fraction of the database disqualified (Table 3's >=95%)."""
        if self.n_triples_before == 0:
            return 0.0
        return 1.0 - self.n_triples_after / self.n_triples_before

    @property
    def triples(self) -> Set[IndexedTriple]:
        return {
            (s, label, o)
            for label, (subjects, objects) in self.columns.items()
            for s, o in zip(subjects.tolist(), objects.tolist())
        }

    def name_triples(self) -> List[Tuple]:
        data = self.data
        return [
            (data.node_name(s), label, data.node_name(o))
            for s, label, o in self.triples
        ]

    def to_graph_database(self) -> GraphDatabase:
        db = GraphDatabase()
        for s, p, o in self.name_triples():
            db.add_triple(s, p, o)
        return db

    def to_store(self, store: Optional[TripleStore] = None) -> TripleStore:
        """The retained triples as a join-engine store, in O(1): the
        store reads a label direction's CSR of the kept columns on
        first touch.

        ``store`` is the full store over :attr:`data`; its node ids
        must be the graph's node indices.  The pruned store shares its
        dictionaries.  Without one, dictionaries of the graph's nodes
        in index order and of the retained labels stand in.  Its fills
        are per query, so they leave ``join_index_fills_total`` alone.
        """
        if store is None:
            nodes = _node_dictionary(self.data)
            predicates = TermDictionary.from_terms(sorted(self.columns))
        else:
            nodes, predicates = store.nodes, store.predicates
        return TripleStore(self, nodes, predicates, count_fills=False)

    # -- column source of the pruned store ---------------------------------

    def label_csr(self, label: str, direction: str) -> Optional[CSR]:
        """The kept columns as one direction's CSR: the forward one
        as they are, the backward one after a stable sort by object
        (subjects stay sorted within each object)."""
        columns = self.columns.get(label)
        if columns is None:
            return None
        subjects, objects = columns
        if direction == "backward":
            order = np.argsort(objects, kind="stable")
            subjects, objects = objects[order], subjects[order]
        return csr_from_sorted_columns(subjects, objects)

    def label_counts(self, label: str) -> Tuple[int, int, int]:
        subjects, objects = self.columns.get(label, NO_EDGES)
        if not subjects.size:
            return (0, 0, 0)
        # subjects ascending: one distinct subject per run
        n_subjects = int(np.count_nonzero(subjects[1:] != subjects[:-1])) + 1
        return (int(subjects.size), n_subjects, int(np.unique(objects).size))


def retained_triples(result: SolverResult) -> Set[IndexedTriple]:
    """Triples kept by one solved SOI (one union-free branch)."""
    soi = result.soi
    data = result.data
    matrices = data.matrices()
    kept: Set[IndexedTriple] = set()
    for edge in soi.edges:
        pair = matrices.get(edge.label)
        if pair is None:
            continue
        source_row = result.row(edge.source)
        target_row = result.row(edge.target)
        if source_row.is_empty() or target_row.is_empty():
            continue
        # Iterate whichever side is smaller against the adjacency.
        if source_row.count() <= target_row.count():
            active = source_row & pair.forward.summary
            for i in active.iter_ones():
                matched = pair.forward.rows[int(i)] & target_row
                for j in matched.iter_ones():
                    kept.add((int(i), edge.label, int(j)))
        else:
            active = target_row & pair.backward.summary
            for j in active.iter_ones():
                matched = pair.backward.rows[int(j)] & source_row
                for i in matched.iter_ones():
                    kept.add((int(i), edge.label, int(j)))
    return kept


def prune(
    data: Graph, results: SolverResult | Iterable[SolverResult]
) -> PruneResult:
    """Prune ``data`` by one or more solved SOIs (several for UNION
    queries — the union of the branch prunings, Prop. 3)."""
    start = time.perf_counter()
    if isinstance(results, SolverResult):
        results = [results]
    matrices = data.matrices()
    masks: Dict[str, np.ndarray] = {}
    label_edges: Dict[str, Columns] = {}
    for result in results:
        if result.data is not data:
            raise ValueError("solver result belongs to a different data graph")
        for edge in result.soi.edges:
            pair = matrices.get(edge.label)
            if pair is None:
                continue
            source_row = result.row(edge.source)
            target_row = result.row(edge.target)
            if source_row.is_empty() or target_row.is_empty():
                continue
            if edge.label not in label_edges:
                label_edges[edge.label] = pair.edge_columns()
            subjects, objects = label_edges[edge.label]
            mask = source_row.bits_at(subjects) & target_row.bits_at(objects)
            if edge.label in masks:
                masks[edge.label] |= mask
            else:
                masks[edge.label] = mask
    columns: Dict[str, Columns] = {}
    for label, mask in masks.items():
        if mask.any():
            subjects, objects = label_edges[label]
            columns[label] = (subjects[mask], objects[mask])
    elapsed = time.perf_counter() - start
    return PruneResult(
        data=data,
        columns=columns,
        n_triples_before=data.n_edges,
        elapsed=elapsed,
    )
