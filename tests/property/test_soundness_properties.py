"""Property-based soundness tests (Theorems 1 and 2).

For random databases and random queries from the language S (BGP,
AND, OPTIONAL), every SPARQL match must be contained in the largest
SOI solution, and evaluating the query on the pruned store must
return exactly the full-store result set.  The column-wise extraction
and the id-level pruned store are checked against their
specifications, with UNION shapes included.
"""

from hypothesis import given, settings, strategies as st

from repro.core import compile_query, prune, retained_triples, solve
from repro.graph import GraphDatabase
from repro.pipeline import PruningPipeline
from repro.rdf import Variable
from repro.sparql.ast import (
    BGP,
    Join,
    LeftJoin,
    SelectQuery,
    TriplePattern,
    Union,
)
from repro.store import Executor, TripleStore
from repro.store.engine import QueryResult

LABELS = ("p", "q", "r")
VARS = tuple(Variable(n) for n in "abcd")


@st.composite
def databases(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    n_edges = draw(st.integers(min_value=1, max_value=16))
    db = GraphDatabase()
    for i in range(n):
        db.add_node(f"n{i}")
    for _ in range(n_edges):
        s = draw(st.integers(min_value=0, max_value=n - 1))
        o = draw(st.integers(min_value=0, max_value=n - 1))
        label = draw(st.sampled_from(LABELS))
        db.add_triple(f"n{s}", label, f"n{o}")
    return db


@st.composite
def bgps(draw, max_triples=3):
    n = draw(st.integers(min_value=1, max_value=max_triples))
    triples = []
    for _ in range(n):
        s = draw(st.sampled_from(VARS))
        o = draw(st.sampled_from(VARS))
        label = draw(st.sampled_from(LABELS))
        triples.append(TriplePattern(s, label, o))
    return BGP(triples)


@st.composite
def s_queries(draw, depth=2):
    """Random queries from the language S (Sect. 4.3 grammar)."""
    if depth == 0:
        return draw(bgps())
    kind = draw(st.sampled_from(["bgp", "and", "optional"]))
    if kind == "bgp":
        return draw(bgps())
    left = draw(s_queries(depth=depth - 1))
    right = draw(s_queries(depth=depth - 1))
    if kind == "and":
        return Join(left, right)
    return LeftJoin(left, right)


@given(databases(), bgps())
@settings(max_examples=50, deadline=None)
def test_theorem1_bgp_matches_in_largest_solution(db, bgp):
    """Theorem 1: every BGP match is contained in the largest dual
    simulation."""
    pipeline = PruningPipeline(db)
    query = SelectQuery(None, bgp)
    full = pipeline.evaluate_full(query)
    [compiled] = compile_query(query)
    result = solve(compiled.soi, db)
    for mu in full.decoded():
        for var, node in mu.items():
            vid = compiled.mandatory_vid(var)
            assert vid is not None
            assert node in result.candidates(vid), (var, node)


@given(databases(), s_queries())
@settings(max_examples=50, deadline=None)
def test_theorem2_matches_preserved(db, pattern):
    """Theorem 2 (soundness for S): for every match mu and every
    variable it binds, (v, mu(v)) is in the largest solution — where
    the responsible solution row is the mandatory one when it exists,
    or some surrogate otherwise."""
    pipeline = PruningPipeline(db)
    query = SelectQuery(None, pattern)
    full = pipeline.evaluate_full(query)
    [compiled] = compile_query(query)
    result = solve(compiled.soi, db)
    for mu in full.decoded():
        for var, node in mu.items():
            vids = compiled.all_vids(var)
            assert vids
            union = set()
            for vid in vids:
                union |= result.candidates(vid)
            assert node in union, (var, node)


@given(databases(), s_queries())
@settings(max_examples=60, deadline=None)
def test_pruned_evaluation_preserves_matches(db, pattern):
    """The headline guarantee (Theorem 2): no match is lost on the
    pruned store — and for well-designed patterns the pruned result
    set is *exactly* the full one (weak monotonicity, Sect. 4.5).
    Non-well-designed patterns may gain overapproximated solutions."""
    from repro.sparql.ast import is_well_designed

    pipeline = PruningPipeline(db)
    query = SelectQuery(None, pattern)
    report = pipeline.run(query, name="prop")
    assert report.results_preserved
    if is_well_designed(pattern):
        assert report.results_equal


@given(databases(), s_queries())
@settings(max_examples=30, deadline=None)
def test_pruned_is_subset_of_database(db, pattern):
    compiled = compile_query(SelectQuery(None, pattern))
    results = [solve(branch.soi, db) for branch in compiled]
    outcome = prune(db, results)
    all_triples = set(db.triples())
    assert set(outcome.name_triples()) <= all_triples


@given(databases(), bgps())
@settings(max_examples=30, deadline=None)
def test_required_triples_subset_of_pruned(db, bgp):
    """Required triples (those in some match) are never pruned away."""
    pipeline = PruningPipeline(db)
    query = SelectQuery(None, bgp)
    full = pipeline.evaluate_full(query)
    [compiled] = compile_query(query)
    outcome = prune(db, solve(compiled.soi, db))
    kept = set(outcome.name_triples())
    assert full.required_triples() <= kept


@st.composite
def union_queries(draw):
    """S queries, some with a UNION on top or under an AND."""
    kind = draw(st.sampled_from(["plain", "union", "nested"]))
    if kind == "plain":
        return draw(s_queries())
    union = Union(draw(s_queries(depth=1)), draw(s_queries(depth=1)))
    if kind == "union":
        return union
    return Join(union, draw(bgps()))


def solve_branches(db, pattern):
    compiled = compile_query(SelectQuery(None, pattern))
    return [solve(branch.soi, db) for branch in compiled]


@given(databases(), union_queries())
@settings(max_examples=60, deadline=None)
def test_column_extraction_equals_per_bit_specification(db, pattern):
    """Per-label masks over the edge columns keep exactly the union of
    the per-bit retained triples of every branch."""
    results = solve_branches(db, pattern)
    expected = set()
    for result in results:
        expected |= retained_triples(result)
    outcome = prune(db, results)
    assert outcome.triples == expected
    assert outcome.n_triples_after == len(expected)


@given(databases(), union_queries())
@settings(max_examples=40, deadline=None)
def test_id_level_pruned_store_equals_name_rebuild(db, pattern):
    """The pruned store built from id columns (sharing the full
    store's dictionaries, or the graph's own) answers like a store
    re-encoded from the retained name triples, on both engines and
    under both BGP orderings."""
    query = SelectQuery(None, pattern)
    outcome = prune(db, solve_branches(db, pattern))
    rebuilt = TripleStore.from_triples(outcome.name_triples())
    built = (
        outcome.to_store(TripleStore.from_graph_database(db)),
        outcome.to_store(),
    )
    for strategy in ("nested", "materialize"):
        for ordering in ("greedy", "static"):
            def answers(store):
                matches = Executor(store, strategy, ordering).evaluate(
                    pattern
                )
                return QueryResult(store, query, matches, 0.0).as_set()

            expected = answers(rebuilt)
            for store in built:
                assert answers(store) == expected, (strategy, ordering)
