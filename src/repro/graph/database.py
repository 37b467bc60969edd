"""Graph databases (paper Def. 1).

A graph database is a graph whose nodes are database objects and
literals and whose labels are predicates.  The RDF-inherited
constraint is that **literals may only occur as edge targets** —
``E subseteq (O intersect objects) x Sigma x O``.  The class below
enforces that constraint and otherwise behaves like :class:`Graph`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Set

from repro.errors import GraphError
from repro.graph.graph import Edge, Graph


class Literal:
    """A literal database node (attribute value).

    Wrapping values (rather than using raw str/int) keeps the object
    and literal universes disjoint, as the paper assumes, even when a
    literal's lexical form collides with an object name.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("repro.Literal", self.value))

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class GraphDatabase(Graph):
    """A graph database: a graph where literals never have out-edges."""

    def __init__(self):
        super().__init__()
        self._literal_indices: Set[int] = set()

    def _warn_session_mutation(self) -> None:
        """Mutating a database *behind a session's back* is the
        pre-write-API idiom: the session's matrices, stores and caches
        never hear about the edge.  Warn once and point at the
        first-class write surface.  Standalone databases (not yet
        attached to a session) mutate silently, as always.
        """
        if getattr(self, "_session_attached", False):
            from repro._deprecation import deprecated_call

            deprecated_call(
                "GraphDatabase.add_triple:session",
                "mutating a GraphDatabase already attached to a "
                "session (add_triple/add_edge) is deprecated — the "
                "session's indexes will not see the change; use "
                "Database.add() / Database.retract() on a writable "
                "session (Database.writable()/Database.edit()) "
                "instead",
                stacklevel=4,
            )

    def add_triple(self, subject: Hashable, predicate: str, obj: Hashable) -> None:
        """Add the triple (s, p, o); ``o`` may be a :class:`Literal`."""
        if isinstance(subject, Literal):
            raise GraphError(
                f"literals may only occur as objects, not subjects: {subject!r}"
            )
        self.add_edge(subject, predicate, obj)
        if isinstance(obj, Literal):
            self._literal_indices.add(self.node_index(obj))

    # Alias matching Graph's API but enforcing the literal constraint.
    def add_edge(self, src: Hashable, label: str, dst: Hashable) -> None:
        if isinstance(src, Literal):
            raise GraphError(
                f"literals may only occur as objects, not subjects: {src!r}"
            )
        self._warn_session_mutation()
        super().add_edge(src, label, dst)
        if isinstance(dst, Literal):
            self._literal_indices.add(self.node_index(dst))

    @classmethod
    def from_triples(cls, triples: Iterable[Edge]) -> "GraphDatabase":
        db = cls()
        for s, p, o in triples:
            db.add_triple(s, p, o)
        return db

    # -- literal bookkeeping ------------------------------------------------

    def is_literal(self, name: Hashable) -> bool:
        return isinstance(name, Literal)

    @property
    def n_literals(self) -> int:
        return len(self._literal_indices)

    def literals(self) -> Iterator[Literal]:
        for idx in self._literal_indices:
            node = self.node_name(idx)
            assert isinstance(node, Literal)
            yield node

    @property
    def n_triples(self) -> int:
        return self.n_edges

    def triples(self) -> Iterator[Edge]:
        return self.edges()

    def __repr__(self) -> str:
        return (
            f"GraphDatabase(|O|={self.n_nodes}, triples={self.n_triples}, "
            f"|Sigma|={len(self.labels)}, literals={self.n_literals})"
        )


def example_movie_database() -> GraphDatabase:
    """The example database of Fig. 1(a) of the paper, verbatim."""
    db = GraphDatabase()
    triples = [
        ("B. De Palma", "directed", "Mission: Impossible"),
        ("B. De Palma", "awarded", "Oscar"),
        ("B. De Palma", "born_in", "Newark"),
        ("B. De Palma", "worked_with", "D. Koepp"),
        ("Mission: Impossible", "genre", "Action"),
        ("Goldfinger", "genre", "Action"),
        ("G. Hamilton", "directed", "Goldfinger"),
        ("G. Hamilton", "born_in", "Paris"),
        ("G. Hamilton", "worked_with", "H. Saltzman"),
        ("Thunderball", "awarded", "Oscar"),
        ("Thunderball", "sequel_of", "Goldfinger"),
        ("H. Saltzman", "born_in", "Saint John"),
        ("From Russia with Love", "prequel_of", "Thunderball"),
        ("T. Young", "directed", "From Russia with Love"),
        ("T. Young", "awarded", "BAFTA Awards"),
        ("D. Koepp", "directed", "Mortdecai"),
        ("P.R. Hunt", "worked_with", "T. Young"),
    ]
    for s, p, o in triples:
        db.add_triple(s, p, o)
    db.add_triple("Newark", "population", Literal(277140))
    db.add_triple("Paris", "population", Literal(2220445))
    db.add_triple("Saint John", "population", Literal(70063))
    return db
