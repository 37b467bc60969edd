"""Graph databases (paper Def. 1).

A graph database is a graph whose nodes are database objects and
literals and whose labels are predicates.  The RDF-inherited
constraint is that **literals may only occur as edge targets** —
``E subseteq (O intersect objects) x Sigma x O``.  The class below
enforces that constraint and otherwise behaves like :class:`Graph`,
except that a database handed to a session is read-only: its edges
change through ``Database.add`` / ``Database.retract``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

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
    """A graph database: a graph where literals never have out-edges.

    Literals are the nodes whose name is a :class:`Literal`; they are
    counted from the node names, so no per-node set is kept.
    """

    def add_triple(self, subject: Hashable, predicate: str, obj: Hashable) -> None:
        """Add the triple (s, p, o); ``o`` may be a :class:`Literal`."""
        self.add_edge(subject, predicate, obj)

    # Alias matching Graph's API but enforcing the literal constraint.
    def add_edge(self, src: Hashable, label: str, dst: Hashable) -> None:
        if isinstance(src, Literal):
            raise GraphError(
                f"literals may only occur as objects, not subjects: {src!r}"
            )
        if getattr(self, "_session_attached", False):
            # The session's matrices, join store and caches would
            # never hear about an edge added behind its back.
            raise GraphError(
                "this GraphDatabase is attached to a session and cannot "
                "be mutated directly; use Database.add() / "
                "Database.retract() on a writable session "
                "(Database.writable() / Database.edit())"
            )
        super().add_edge(src, label, dst)

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
        return sum(1 for _ in self.literals())

    def literals(self) -> Iterator[Literal]:
        return (node for node in self.nodes() if isinstance(node, Literal))

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
