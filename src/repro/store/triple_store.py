"""Dictionary-encoded triple store with per-label SPO-style indexes.

This is the substrate standing in for the graph database systems of
the paper's evaluation (Virtuoso, RDFox): triples are dictionary
encoded (one dense id space for nodes, one for predicates) and indexed
per predicate both subject->objects and object->subjects, so every
bound/unbound access pattern of a triple lookup is served by an index.

The store holds no triples of its own.  It reads them, one label
direction at a time, from a :class:`ColumnSource` — the database as
its per-label adjacency ``F_a`` / ``B_a`` (paper Sect. 3.2–3.3), each
a sorted CSR ``(row nodes, indptr, indices)``.  Every backend's graph
view is one (:class:`~repro.graph.graph.Graph`,
:class:`~repro.storage.TieredGraphView`,
:class:`~repro.store.overlay.OverlayGraphView`), and so is a
:class:`~repro.core.pruning.PruneResult`:

* a label's pso (pos) index is its forward (backward) CSR as the
  source holds it, read into ``row node -> tuple(row)`` on the first
  lookup that reads it (:meth:`_fill`) — nothing is regrouped, sorted
  or put in a set, and a tuple of ints leaves the garbage collector's
  tracking at its next pass.  A lookup pattern reads one direction,
  so the other may never be read; a fully wildcard pattern fills
  every label;
* ``predicate_count`` / ``distinct_subjects`` / ``distinct_objects``
  come from the source's per-label counts and fill nothing, so
  :class:`~repro.store.statistics.StoreStatistics` (join ordering, the
  pruning advisor) never decodes an adjacency payload;
* a source whose triples change (the overlay) calls
  :meth:`invalidate` with the touched labels.

Fills of a session's store count in :attr:`fill_count` and the
process-wide ``join_index_fills_total`` counter, which
:meth:`~repro.api.backend.SnapshotBackend.stats` reports next to the
promotion counters.  The store has no write surface: mutate through
:meth:`repro.api.database.Database.add` / ``retract``.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Tuple,
)

from repro.bitvec import CSR
from repro.errors import GraphError, StoreError
from repro.graph.database import GraphDatabase
from repro.obs.metrics import registry
from repro.rdf.dictionary import TermDictionary

IdTriple = Tuple[int, int, int]
NameTriple = Tuple[Hashable, str, Hashable]
#: ``(edges, distinct subjects, distinct objects)`` of one label.
LabelCounts = Tuple[int, int, int]
#: ``row node -> its CSR row`` of one label direction.
Index = Dict[int, Tuple[int, ...]]


class ColumnSource(Protocol):
    """What a :class:`TripleStore` fills its indexes from."""

    def label_csr(self, label: Hashable, direction: str) -> Optional[CSR]:
        """The label's ``"forward"`` (subject -> objects) or
        ``"backward"`` (object -> subjects) adjacency as sorted int64
        CSR ``(row nodes, indptr, indices)``; ``None`` for a label
        without edges."""
        ...

    def label_counts(self, label: Hashable) -> LabelCounts:
        """``(edges, distinct subjects, distinct objects)`` of the
        label, decode-free where the source can."""
        ...


def _index(csr: Optional[CSR]) -> Index:
    """``row node -> tuple(row)`` over one CSR, rows as stored."""
    if csr is None:
        return {}
    rows, indptr, indices = csr
    members = tuple(indices.tolist())
    bounds = indptr.tolist()
    return {
        row: members[lo:hi]
        for row, lo, hi in zip(rows.tolist(), bounds, bounds[1:])
    }


class TripleStore:
    """Dictionary-encoded triple store over a column source.

    Node ids and predicate ids live in separate spaces (mirroring the
    paper's node set vs. label alphabet); node ids are the source's
    node indices.  ``count_fills=False`` marks a per-query store (the
    pruned store), whose fills are not a session's join-index fills.
    """

    def __init__(
        self,
        source: ColumnSource,
        nodes: TermDictionary,
        predicates: TermDictionary,
        *,
        count_fills: bool = True,
    ):
        self.source = source
        self.nodes = nodes
        self.predicates = predicates
        self._count_fills = count_fills
        # p -> s -> (o, ...)   and   p -> o -> (s, ...), per filled label
        self._pso: Dict[int, Index] = {}
        self._pos: Dict[int, Index] = {}
        self._counts: Dict[int, LabelCounts] = {}
        #: Per-label fills so far (0 == nothing was decoded).
        self.fill_count = 0

    @classmethod
    def from_graph_database(cls, db) -> "TripleStore":
        """A store over the graph view ``db`` in ``db``'s own id space.

        Node ids are ``db``'s node indices and predicate ids follow
        the sorted label order, as in a snapshot, so the solver's rows
        and this store's ids index the same nodes.  Nothing is filled.
        """
        return cls(
            db,
            TermDictionary.from_terms(db.nodes()),
            TermDictionary.from_terms(sorted(db.labels)),
        )

    @classmethod
    def from_triples(cls, triples: Iterable[NameTriple]) -> "TripleStore":
        """A store over a fresh graph of ``triples``."""
        try:
            db = GraphDatabase.from_triples(triples)
        except GraphError as error:
            raise StoreError(str(error)) from error
        return cls.from_graph_database(db)

    # -- per-label fill ----------------------------------------------------

    def _fill(self, p: int, direction: str) -> Optional[Index]:
        """Predicate ``p``'s ``"forward"`` (pso) or ``"backward"``
        (pos) index, read from the source's CSR on first use; ``None``
        for an id outside the dictionary.  Each direction fills on its
        own: a lookup pattern reads one of them."""
        indexes = self._pso if direction == "forward" else self._pos
        index = indexes.get(p)
        if index is not None or not 0 <= p < len(self.predicates):
            return index
        label = self.predicates.decode(p)
        index = _index(self.source.label_csr(label, direction))
        if p not in self._pso and p not in self._pos:
            self.fill_count += 1
            if self._count_fills:
                registry().counter("join_index_fills_total").inc()
        indexes[p] = index
        return index

    def fill_all(self) -> None:
        """Fill both indexes of every predicate (idempotent)."""
        for p in range(len(self.predicates)):
            self._fill(p, "forward")
            self._fill(p, "backward")

    @property
    def filled_predicates(self) -> FrozenSet[int]:
        return frozenset(self._pso) | frozenset(self._pos)

    def invalidate(self, labels: Iterable[Hashable]) -> None:
        """Drop the indexes and counts of labels whose triples changed;
        a label new to the store gets the next predicate id."""
        for label in sorted(labels, key=repr):
            p = self.predicates.encode(label)
            self._pso.pop(p, None)
            self._pos.pop(p, None)
            self._counts.pop(p, None)

    # -- size / statistics (decode-free) --------------------------------------

    def _label_counts(self, p: int) -> LabelCounts:
        counts = self._counts.get(p)
        if counts is None:
            if not 0 <= p < len(self.predicates):
                return (0, 0, 0)
            counts = self.source.label_counts(self.predicates.decode(p))
            self._counts[p] = counts
        return counts

    def predicate_count(self, p: int) -> int:
        return self._label_counts(p)[0]

    def distinct_subjects(self, p: int) -> int:
        return self._label_counts(p)[1]

    def distinct_objects(self, p: int) -> int:
        return self._label_counts(p)[2]

    def predicate_ids(self) -> Iterator[int]:
        """Ids of the predicates that carry at least one triple."""
        return (
            p for p in range(len(self.predicates)) if self.predicate_count(p)
        )

    @property
    def n_triples(self) -> int:
        return sum(
            self.predicate_count(p) for p in range(len(self.predicates))
        )

    def __len__(self) -> int:
        return self.n_triples

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_predicates(self) -> int:
        return len(self.predicates)

    def predicate_names(self) -> Iterator[Hashable]:
        return self.predicates.terms()

    # -- lookups (fill the touched label first) -------------------------------

    def contains_ids(self, s: int, p: int, o: int) -> bool:
        by_subject = self._fill(p, "forward")
        if by_subject is None:
            return False
        objects = by_subject.get(s)
        return objects is not None and o in objects

    def contains(self, subject: Hashable, predicate, obj: Hashable) -> bool:
        s = self.nodes.lookup(subject)
        p = self.predicates.lookup(predicate)
        o = self.nodes.lookup(obj)
        if s is None or p is None or o is None:
            return False
        return self.contains_ids(s, p, o)

    def match_ids(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
    ) -> Iterator[IdTriple]:
        """Iterate id-triples matching the given pattern (None =
        wildcard), filling the touched labels first."""
        if p is None:
            self.fill_all()
            predicates: Iterable[int] = range(len(self.predicates))
        elif self._fill(
            p, "backward" if s is None and o is not None else "forward"
        ) is None:
            return
        else:
            predicates = (p,)
        pso, pos = self._pso, self._pos
        for pid in predicates:
            if s is not None:
                objects = pso[pid].get(s)
                if objects is None:
                    continue
                if o is not None:
                    if o in objects:
                        yield (s, pid, o)
                else:
                    for oid in objects:
                        yield (s, pid, oid)
            elif o is not None:
                subjects = pos[pid].get(o)
                if subjects is None:
                    continue
                for sid in subjects:
                    yield (sid, pid, o)
            else:
                for sid, objects in pso[pid].items():
                    for oid in objects:
                        yield (sid, pid, oid)

    # -- name-level iteration ------------------------------------------------------

    def triples(self) -> Iterator[NameTriple]:
        for s, p, o in self.match_ids(None, None, None):
            yield (
                self.nodes.decode(s),
                self.predicates.decode(p),
                self.nodes.decode(o),
            )

    def id_triples(self) -> Iterator[IdTriple]:
        return self.match_ids(None, None, None)

    def __repr__(self) -> str:
        return (
            f"TripleStore(triples={self.n_triples}, nodes={self.n_nodes}, "
            f"predicates={self.n_predicates}, "
            f"filled={len(self._pso)})"
        )
