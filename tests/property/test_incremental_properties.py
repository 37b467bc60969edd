"""Property-based tests: the fixpoint cache is invisible.

Under random add/retract scripts, a writable session that caches
query fixpoints must answer every query identically to a fresh
cold-solving session over the same final triple set, for every
kernel.  The scripts write nodes the base never held and a label no
query reads, so reuse across node growth (cached rows widened with
zero bits) is exercised as well as cold re-solves.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, ExecutionProfile

NODES = tuple(f"n{i}" for i in range(8))
#: Nodes only a mutation can introduce.
NEW_NODES = ("m0", "m1")
LABELS = ("p", "q", "r")
#: A label no query reads: writes to it leave every cached fixpoint
#: reusable.
UNREAD_LABEL = "s"
KERNELS = ("reference", "packed", "batched")

QUERIES = (
    "SELECT * WHERE { ?x p ?y . ?y q ?z . }",
    "SELECT * WHERE { ?x p ?y . OPTIONAL { ?y r ?z . } }",
)

triples = st.tuples(
    st.sampled_from(NODES), st.sampled_from(LABELS), st.sampled_from(NODES)
)
mutation_triples = st.tuples(
    st.sampled_from(NODES + NEW_NODES),
    st.sampled_from(LABELS + (UNREAD_LABEL,)),
    st.sampled_from(NODES + NEW_NODES),
)

#: (base triples, batches of (op, triple) mutations).  The base seeds
#: every node of NODES into the graph; NEW_NODES appear only through
#: a mutation.
scripts = st.tuples(
    st.lists(triples, min_size=2, max_size=12),
    st.lists(
        st.lists(
            st.tuples(st.sampled_from(("add", "retract")), mutation_triples),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=3,
    ),
)


def _canonical(result):
    return sorted(repr(row) for row in result.rows())


def _seed_triples():
    return [(n, "seed", n) for n in NODES]


def _run_script(profile, base, batches):
    """Replay the script on an incremental session, checking every
    query after every batch against a fresh cold control session."""
    session = Database.writable(profile=profile)
    state = set(_seed_triples())
    session.add(sorted(state))
    session.add(base)
    state.update(base)
    # Warm the per-query fixpoint caches.
    for query in QUERIES:
        list(session.query(query))
    cold_profile = profile.replace(incremental=False)
    for batch in batches:
        for op, triple in batch:
            if op == "add":
                session.add([triple])
                state.add(triple)
            else:
                session.retract([triple])
                state.discard(triple)
        control = Database.writable(profile=cold_profile)
        control.add(sorted(state))
        for query in QUERIES:
            assert _canonical(session.query(query)) == _canonical(
                control.query(query)
            ), (query, sorted(state))


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=20, deadline=None)
@given(script=scripts)
def test_cached_fixpoints_match_cold(kernel, script):
    base, batches = script
    profile = ExecutionProfile(pruning="pruned", kernel=kernel)
    _run_script(profile, base, batches)


@settings(max_examples=20, deadline=None)
@given(script=scripts)
def test_process_default_kernel_matches_cold(script):
    # kernel=None defers to the process-wide default kernel.
    base, batches = script
    _run_script(ExecutionProfile(pruning="pruned"), base, batches)


@settings(max_examples=10, deadline=None)
@given(script=scripts)
def test_auto_mode_matches_cold(script):
    base, batches = script
    _run_script(ExecutionProfile(), base, batches)
