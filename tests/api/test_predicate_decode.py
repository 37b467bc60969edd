"""Variables in predicate position decode to predicate names.

Predicate ids and node ids come from separate dictionaries; a
variable bound only by predicate positions must be decoded through
the predicate dictionary wherever ids become names: rows, the
canonical set, ORDER BY and FILTER.
"""

import pytest

from repro import Database
from repro.sparql import parse_query
from repro.store import QueryEngine, TripleStore

TRIPLES = [("a", "knows", "b"), ("b", "likes", "c")]
SPO = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"


@pytest.fixture
def session():
    return Database.from_triples(TRIPLES)


def test_rows(session):
    rows = session.query(SPO, mode="full").rows()
    assert sorted(row["p"] for row in rows) == ["knows", "likes"]
    assert {(row["s"], row["p"], row["o"]) for row in rows} == set(TRIPLES)


def test_auto_mode_rows(session):
    # `auto` cannot prune a variable predicate and answers in full mode.
    rows = session.query(SPO, mode="auto").rows()
    assert sorted(row["p"] for row in rows) == ["knows", "likes"]


def test_as_set(session):
    assert session.query(SPO, mode="full").as_set() == {
        (("o", "b"), ("p", "knows"), ("s", "a")),
        (("o", "c"), ("p", "likes"), ("s", "b")),
    }


@pytest.mark.parametrize("direction,expected", [
    ("ASC", ["knows", "likes"]), ("DESC", ["likes", "knows"]),
])
def test_order_by_predicate(session, direction, expected):
    result = session.query(
        f"SELECT ?s ?p ?o WHERE {{ ?s ?p ?o }} ORDER BY {direction}(?p)",
        mode="full",
    )
    assert [row["p"] for row in result] == expected


def test_filter_on_predicate(session):
    result = session.query(
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o . FILTER(?p = likes) }",
        mode="full",
    )
    assert result.rows() == [{"o": "c", "p": "likes", "s": "b"}]


def test_conditional_optional_filter_on_predicate(session):
    result = session.query(
        "SELECT * WHERE { ?s knows ?o . "
        "OPTIONAL { ?o ?p ?x . FILTER(?p = likes) } }",
        mode="full",
    )
    assert result.rows() == [{"o": "b", "p": "likes", "s": "a", "x": "c"}]


@pytest.mark.parametrize("profile", ["virtuoso-like", "rdfox-like"])
@pytest.mark.xfail(
    strict=True,
    reason="a variable in both predicate and node position joins ids "
    "from two dictionaries; needs one term dictionary",
)
def test_variable_in_predicate_and_node_position(profile):
    # Insertion order fixes the ids: nodes a b knows Rel -> 0 1 2 3,
    # predicates knows type -> 0 1, so no id coincidence can rescue it.
    store = TripleStore.from_triples([
        ("a", "knows", "b"), ("knows", "type", "Rel"),
    ])
    query = parse_query("SELECT ?p WHERE { ?s ?p ?o . ?p type Rel }")
    result = QueryEngine(store, profile).execute(query)
    assert result.decoded() == [{query.projection[0]: "knows"}]
