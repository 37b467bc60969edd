"""Scale regression for the join operators: OPTIONAL and the
partial-binding inner join are hash probes, not nested loops.

A nested loop over 20 000 x 20 000 rows is 4 x 10^8 compatibility
tests (minutes in CPython); the probe answers in well under a second.
"""

import time

from repro.rdf import Variable
from repro.store import Executor, TripleStore

N = 20_000
BUDGET_S = 5.0

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def timed(operator, *args):
    start = time.perf_counter()
    out = operator(*args)
    return out, time.perf_counter() - start


def test_all_bound_optional_is_linear():
    executor = Executor(TripleStore.from_triples([]))
    left = [{X: i} for i in range(N)]
    # Half the left rows find one extension, half find none.
    right = [{X: i, Y: i} for i in range(N // 2, N + N // 2)]
    out, took = timed(executor.left_join, left, right)
    assert took < BUDGET_S
    assert len(out) == N
    assert sum(1 for mu in out if Y in mu) == N // 2


def test_partial_binding_join_is_linear():
    executor = Executor(TripleStore.from_triples([]))
    left = [{X: i, Y: i, Z: i} for i in range(N)]
    # Each right row binds one of the two shared variables, so the
    # hash join does not apply and every row still matches just one.
    right = [{X: i} if i % 2 else {Y: i} for i in range(N)]
    out, took = timed(executor.join, left, right)
    assert took < BUDGET_S
    assert len(out) == N
    assert out == left
