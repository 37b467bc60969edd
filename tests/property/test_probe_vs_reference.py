"""The hash-probe joins against the direct semantics.

Covers what the all-bound hash join never sees: rows that bind
different subsets of the shared variables (non-well-designed
OPTIONALs, UNION branches joined to a BGP), under both BGP strategies
and both join orderings, plus the probe's ordering contract — its
output is the nested loop's, row for row.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Variable
from repro.sparql.ast import BGP, Join, LeftJoin, TriplePattern, Union
from repro.store import Executor, TripleStore
from repro.store.bindings import compatible, merge, solution_key
from repro.store.reference import ReferenceEvaluator
from test_engine_vs_reference import queries, result_set, stores

CONFIGS = [
    (strategy, ordering)
    for strategy in ("nested", "materialize")
    for ordering in ("greedy", "static")
]

X, Y, Z, W = (Variable(n) for n in "xyzw")


def tp(s, p, o):
    return TriplePattern(s, p, o)


#: OPTIONAL { ?y q ?z OPTIONAL { ?x q ?w } } under ?x p ?y: the
#: innermost group shares ?x only with the outermost one.
NESTED_OPTIONAL = LeftJoin(
    BGP([tp(X, "p", Y)]),
    LeftJoin(BGP([tp(Y, "q", Z)]), BGP([tp(X, "q", W)])),
)

#: A UNION whose branches bind {x, y} and {x, z}, joined to a BGP over
#: {y, z}: every right-side row leaves one shared variable unbound.
UNION_JOIN = Join(
    Union(BGP([tp(X, "p", Y)]), BGP([tp(X, "q", Z)])),
    BGP([tp(Y, "p", Z)]),
)

#: The same UNION as the optional side.
UNION_OPTIONAL = LeftJoin(
    BGP([tp(Y, "q", Z)]),
    Union(BGP([tp(X, "p", Y)]), BGP([tp(X, "q", Z)])),
)


def check(store, pattern, strategy, ordering):
    reference = ReferenceEvaluator(store).as_set(pattern)
    executor = Executor(store, strategy=strategy, ordering=ordering)
    assert result_set(executor.evaluate(pattern)) == reference


@pytest.mark.parametrize("strategy,ordering", CONFIGS)
@pytest.mark.parametrize(
    "pattern", [NESTED_OPTIONAL, UNION_JOIN, UNION_OPTIONAL],
    ids=["nested_optional", "union_join", "union_optional"],
)
@given(store=stores())
@settings(max_examples=25, deadline=None)
def test_partially_bound_shapes(store, pattern, strategy, ordering):
    check(store, pattern, strategy, ordering)


@pytest.mark.parametrize("strategy,ordering", CONFIGS)
@given(store=stores(), pattern=queries(depth=3))
@settings(max_examples=40, deadline=None)
def test_random_queries(store, pattern, strategy, ordering):
    check(store, pattern, strategy, ordering)


# -- ordering: the probe is the nested loop, reordered never ------------------

VARS = (X, Y, Z)

rows = st.lists(
    st.dictionaries(st.sampled_from(VARS), st.integers(0, 2), max_size=3),
    max_size=8,
)


def nested_join(left, right):
    return [merge(lhs, r) for lhs in left for r in right if compatible(lhs, r)]


def nested_left_join(left, right):
    out = []
    for lhs in left:
        extended = [merge(lhs, r) for r in right if compatible(lhs, r)]
        out.extend(extended or [dict(lhs)])
    return out


def all_bound(left, right):
    shared = set().union(*left) & set().union(*right)
    return all(shared <= mu.keys() for mu in left + right)


@given(left=rows, right=rows)
@settings(max_examples=300, deadline=None)
def test_left_join_keeps_nested_loop_order(left, right):
    executor = Executor(TripleStore.from_triples([]))
    assert executor.left_join(left, right) == nested_left_join(left, right)


@given(left=rows, right=rows)
@settings(max_examples=300, deadline=None)
def test_partial_binding_join_keeps_nested_loop_order(left, right):
    executor = Executor(TripleStore.from_triples([]))
    got, want = executor.join(left, right), nested_join(left, right)
    if all_bound(left, right):
        # The all-bound hash join orders by its build side; only the
        # multiset is promised there.
        assert sorted(got, key=solution_key) == sorted(
            want, key=solution_key
        )
    else:
        assert got == want
