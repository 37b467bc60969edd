"""In-memory dictionary-encoded triple store with SPO-style indexes.

This is the substrate standing in for the graph database systems of
the paper's evaluation (Virtuoso, RDFox): triples are dictionary
encoded (one dense id space for nodes, one for predicates) and indexed
per predicate both subject->objects and object->subjects, so every
bound/unbound access pattern of a triple lookup is served by an index.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Optional, Set, Tuple

import numpy as np

from repro.errors import StoreError
from repro.graph.database import GraphDatabase, Literal
from repro.graph.graph import Graph
from repro.rdf.dictionary import TermDictionary

IdTriple = Tuple[int, int, int]
NameTriple = Tuple[Hashable, str, Hashable]


def _index(keys: np.ndarray, values: np.ndarray) -> Dict[int, Set[int]]:
    """``key -> set(values)`` over two columns sorted by key."""
    if keys.size == 0:
        return {}
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    bounds = np.append(starts, keys.size).tolist()
    members = values.tolist()
    return {
        key: set(members[lo:hi])
        for key, lo, hi in zip(keys[starts].tolist(), bounds, bounds[1:])
    }


class TripleStore:
    """Dictionary-encoded triple store.

    Node ids and predicate ids live in separate spaces (mirroring the
    paper's node set vs. label alphabet).  All read paths are index
    lookups; full scans only happen for fully unbound patterns.
    """

    def __init__(self):
        self.nodes = TermDictionary()
        self.predicates = TermDictionary()
        # p -> s -> set(o)   and   p -> o -> set(s)
        self._pso: Dict[int, Dict[int, Set[int]]] = {}
        self._pos: Dict[int, Dict[int, Set[int]]] = {}
        self._size = 0

    # -- construction ------------------------------------------------------

    def add(self, subject: Hashable, predicate: str | Hashable, obj: Hashable) -> bool:
        """Insert a triple; returns True when it was new."""
        if isinstance(subject, Literal):
            raise StoreError("literals may not be subjects")
        s = self.nodes.encode(subject)
        p = self.predicates.encode(predicate)
        o = self.nodes.encode(obj)
        return self._add_ids(s, p, o)

    def _add_ids(self, s: int, p: int, o: int) -> bool:
        return self._add_all(((s, p, o),)) == 1

    def _add_all(self, id_triples: Iterable[IdTriple]) -> int:
        """Insert id triples; returns how many were new."""
        pso, pos = self._pso, self._pos
        added = 0
        for s, p, o in id_triples:
            objects = pso.setdefault(p, {}).setdefault(s, set())
            if o in objects:
                continue
            objects.add(o)
            pos.setdefault(p, {}).setdefault(o, set()).add(s)
            added += 1
        self._size += added
        return added

    def _fill_columns(
        self, p: int, subjects: np.ndarray, objects: np.ndarray
    ) -> None:
        """Set predicate ``p``'s indexes from its int64 ``(s, o)``
        columns, sorted by subject and without repeats (a label's
        forward CSR); one stable sort by object gives the reverse
        index.  Leaves the triple count alone."""
        by_object = np.argsort(objects, kind="stable")
        self._pso[p] = _index(subjects, objects)
        self._pos[p] = _index(objects[by_object], subjects[by_object])

    @classmethod
    def from_triples(cls, triples: Iterable[NameTriple]) -> "TripleStore":
        store = cls()
        for s, p, o in triples:
            store.add(s, p, o)
        return store

    @classmethod
    def from_graph_database(cls, db: GraphDatabase) -> "TripleStore":
        """A store over ``db`` in ``db``'s own id space.

        Node ids are ``db``'s node indices and predicate ids follow
        the sorted label order, as in a snapshot, so the solver's rows
        and this store's ids index the same nodes.
        """
        store = cls()
        store.nodes = TermDictionary.from_terms(db.nodes())
        store.predicates = TermDictionary.from_terms(sorted(db.labels))
        if isinstance(db, Graph):
            edges = db.indexed_edges()
        else:  # a graph-like view, e.g. a TieredGraphView
            node_id = store.nodes.lookup
            edges = (
                (node_id(s), p, node_id(o)) for s, p, o in db.triples()
            )
        predicate_id = store.predicates.lookup
        store._add_all((s, predicate_id(p), o) for s, p, o in edges)
        return store

    def to_graph_database(self) -> GraphDatabase:
        """The graph of this store; its node indices are this store's
        node ids."""
        db = GraphDatabase()
        for name in self.nodes.terms():
            db.add_node(name)
        for s, p, o in self.triples():
            db.add_triple(s, p, o)
        return db

    # -- size / membership ----------------------------------------------------

    @property
    def n_triples(self) -> int:
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_predicates(self) -> int:
        return len(self.predicates)

    def predicate_names(self) -> Iterator[Hashable]:
        return self.predicates.terms()

    def contains_ids(self, s: int, p: int, o: int) -> bool:
        by_subject = self._pso.get(p)
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

    # -- id-level lookups -------------------------------------------------------

    def objects(self, s: int, p: int) -> Set[int]:
        """All o with (s, p, o) in the store."""
        return self._pso.get(p, {}).get(s, set())

    def subjects(self, p: int, o: int) -> Set[int]:
        """All s with (s, p, o) in the store."""
        return self._pos.get(p, {}).get(o, set())

    def pairs(self, p: int) -> Iterator[Tuple[int, int]]:
        """All (s, o) with (s, p, o) in the store."""
        for s, objects in self._pso.get(p, {}).items():
            for o in objects:
                yield (s, o)

    def predicate_count(self, p: int) -> int:
        return sum(len(objs) for objs in self._pso.get(p, {}).values())

    def distinct_subjects(self, p: int) -> int:
        return len(self._pso.get(p, {}))

    def distinct_objects(self, p: int) -> int:
        return len(self._pos.get(p, {}))

    def predicate_ids(self) -> Iterator[int]:
        return iter(self._pso.keys())

    def match_ids(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
    ) -> Iterator[IdTriple]:
        """Iterate id-triples matching the given pattern (None = wildcard)."""
        predicates: Iterable[int]
        if p is not None:
            if p not in self._pso:
                return
            predicates = (p,)
        else:
            predicates = list(self._pso.keys())
        for pid in predicates:
            if s is not None:
                objects = self._pso[pid].get(s)
                if objects is None:
                    continue
                if o is not None:
                    if o in objects:
                        yield (s, pid, o)
                else:
                    for oid in objects:
                        yield (s, pid, oid)
            elif o is not None:
                subjects = self._pos[pid].get(o)
                if subjects is None:
                    continue
                for sid in subjects:
                    yield (sid, pid, o)
            else:
                for sid, objects in self._pso[pid].items():
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

    def subset(self, id_triples: Iterable[IdTriple]) -> "TripleStore":
        """A new store with the given id triples of this store.

        The new store shares this store's ``nodes`` and ``predicates``
        dictionaries, so an id means the same term in both; treat it
        as read-only.
        """
        out = TripleStore()
        out.nodes = self.nodes
        out.predicates = self.predicates
        out._add_all(id_triples)
        return out

    def __repr__(self) -> str:
        return (
            f"TripleStore(triples={self._size}, nodes={self.n_nodes}, "
            f"predicates={self.n_predicates})"
        )
