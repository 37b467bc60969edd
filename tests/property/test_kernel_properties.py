"""Property-based tests: every vectorized kernel is bit-identical to
the reference kernel.

The packed kernel (contiguous row blocks, vectorized products) and
the batched kernel (whole solver rounds as one gather+reduce over the
shared multi-label block, with the saturated-source summary shortcut)
must be indistinguishable from the seed's per-row reference kernel on
every product — row-wise, column-wise, and auto, forward and
backward, with and without masks — and on every solver fixpoint,
which in turn must equal the Def. 2 reference implementation.  The
batched engine additionally promises the *same trajectory* as the
sequential kernels: identical rounds, evaluations, updates, and bits
removed.  Both promises must survive solving over a tiered snapshot
view whose cold labels are promoted mid-solve.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.bitvec import (
    Bitset,
    build_label_matrices,
    use_kernel,
)
from repro.core import (
    SolverOptions,
    largest_dual_simulation,
    largest_dual_simulation_reference,
)
from repro.core.solver import solve
from repro.core.soi import SystemOfInequalities
from repro.graph import Graph
from repro.graph.database import GraphDatabase

LABELS = ("a", "b")
DIRECTIONS = ("forward", "backward")
STRATEGIES = ("row", "column", "auto")
KERNELS = ("packed", "batched", "reference")


@st.composite
def matrix_inputs(draw, max_nodes=80, max_edges=160, sizes=None):
    """``(n, edges, vec, mask)``; with ``sizes``, ``n`` is drawn from
    them and some nodes are kept isolated (no edge touches them)."""
    if sizes is None:
        n = draw(st.integers(min_value=1, max_value=max_nodes))
        endpoints = st.integers(min_value=0, max_value=n - 1)
    else:
        n = draw(st.sampled_from(sizes))
        isolated = draw(st.sets(
            st.integers(min_value=0, max_value=n - 1), max_size=n - 1
        ))
        endpoints = st.sampled_from(
            [v for v in range(n) if v not in isolated]
        )
    n_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = [
        (draw(endpoints), draw(st.sampled_from(LABELS)), draw(endpoints))
        for _ in range(n_edges)
    ]
    vec = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    mask = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return n, edges, vec, mask


@st.composite
def graphs(draw, max_nodes=8, max_edges=14):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    n_edges = draw(st.integers(min_value=0, max_value=max_edges))
    g = Graph()
    for i in range(n):
        g.add_node(i)
    for _ in range(n_edges):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        label = draw(st.sampled_from(LABELS))
        g.add_edge(src, label, dst)
    return g


@st.composite
def patterns(draw, max_nodes=4, max_edges=6):
    return draw(graphs(max_nodes=max_nodes, max_edges=max_edges))


def _solve_on(kernel, pattern, data, options):
    with use_kernel(kernel):
        return largest_dual_simulation(pattern, data, options)


def _assert_same_fixpoint(result, reference):
    assert result.total_bits() == reference.total_bits()
    for var in reference.soi.roots():
        assert result.row(var) == reference.row(var)


@given(matrix_inputs())
@settings(max_examples=80, deadline=None)
def test_products_bit_identical_across_kernels(inputs):
    n, edges, vec_members, mask_members = inputs
    matrices = build_label_matrices(n, edges)
    vec = Bitset.from_indices(n, vec_members)
    mask = Bitset.from_indices(n, mask_members)
    for pair in matrices.values():
        for direction in DIRECTIONS:
            for strategy in STRATEGIES:
                outcomes = {}
                for kernel in KERNELS:
                    with use_kernel(kernel):
                        outcomes[kernel] = pair.product(
                            vec, direction, mask=mask, strategy=strategy
                        )
                assert outcomes["packed"] == outcomes["reference"]
                assert outcomes["batched"] == outcomes["reference"]
            # Unmasked row-wise product (the paper's plain Eq. (9)).
            with use_kernel("packed"):
                packed = pair.product(vec, direction, strategy="row")
            with use_kernel("reference"):
                reference = pair.product(vec, direction, strategy="row")
            assert packed == reference


def _set_product(edges, direction, members, mask=None):
    """The Eq. (9) product over a label's ``(s, d)`` edge set, in
    plain set semantics (the oracle no matrix layout shares)."""
    if direction == "backward":
        edges = {(d, s) for s, d in edges}
    out = {d for s, d in edges if s in members}
    return out if mask is None else out & mask


def _assert_csr_products_match(n, pair, edges, vec, masks):
    """``pair``'s products — on the CSR (``packed``) and on the dense
    rows derived from it (``reference``) — equal the set products of
    ``edges``, for every strategy and direction."""
    members = set(vec.iter_ones().tolist())
    for kernel in ("packed", "reference"):
        with use_kernel(kernel):
            for direction in DIRECTIONS:
                for mask in masks:
                    want = _set_product(
                        edges, direction, members,
                        set(mask.iter_ones().tolist()),
                    )
                    for strategy in STRATEGIES:
                        got = pair.product(
                            vec, direction, mask=mask, strategy=strategy
                        )
                        assert got == Bitset.from_indices(n, want), (
                            kernel, direction, strategy,
                        )
                got = pair.product(vec, direction, strategy="row")
                want = _set_product(edges, direction, members)
                assert got == Bitset.from_indices(n, want)
    s, o = pair.edge_columns()
    assert list(zip(s.tolist(), o.tolist())) == sorted(edges)


@given(
    matrix_inputs(max_edges=120, sizes=(1, 63, 64, 65, 200)),
    st.integers(min_value=0, max_value=199),
    st.integers(min_value=0, max_value=199),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_csr_products_match_reference(inputs, extra_src, extra_dst, full):
    """CSR products, and the dense rows derived from the CSR, equal
    set-semantics products, with empty, full and drawn masks, across
    word boundaries and with isolated nodes; an edge added to a
    ``Graph`` after its matrices were built is seen."""
    n, edges, vec_members, mask_members = inputs
    vec = Bitset.ones(n) if full else Bitset.from_indices(n, vec_members)
    masks = (
        Bitset.zeros(n), Bitset.ones(n), Bitset.from_indices(n, mask_members)
    )
    by_label = {}
    for src, label, dst in edges:
        by_label.setdefault(label, set()).add((src, dst))
    csr_pairs = build_label_matrices(n, edges)
    assert set(csr_pairs) == set(by_label)
    for label, csr in csr_pairs.items():
        assert not csr.forward.is_packed and not csr.backward.is_packed
        _assert_csr_products_match(n, csr, by_label[label], vec, masks)
    # The graph's matrices are cached; a new edge must not be served
    # stale.
    graph = Graph()
    for i in range(n):
        graph.add_node(i)
    for src, label, dst in edges:
        graph.add_edge(src, label, dst)
    graph.matrices()
    src, dst = extra_src % n, extra_dst % n
    graph.add_edge(src, LABELS[0], dst)
    by_label.setdefault(LABELS[0], set()).add((src, dst))
    pair = graph.matrices()[LABELS[0]]
    assert pair.forward.has_edge(src, dst)
    assert pair.backward.has_edge(dst, src)
    _assert_csr_products_match(n, pair, by_label[LABELS[0]], vec, masks)


@given(matrix_inputs(max_nodes=40, max_edges=80))
@settings(max_examples=60, deadline=None)
def test_rowwise_product_matches_summary_or_of_rows(inputs):
    n, edges, vec_members, _ = inputs
    matrices = build_label_matrices(n, edges)
    vec = Bitset.from_indices(n, vec_members)
    for pair in matrices.values():
        with use_kernel("packed"):
            out = pair.forward.product_rowwise(vec)
        expected = Bitset.zeros(n)
        for i in vec_members:
            row = pair.forward.row(i)
            if row is not None:
                expected |= row
        assert out == expected


@given(patterns(), graphs(), st.sampled_from(STRATEGIES))
@settings(max_examples=40, deadline=None)
def test_solver_fixpoints_bit_identical_across_kernels(
    pattern, data, product
):
    options = SolverOptions(product=product)
    reference = _solve_on("reference", pattern, data, options)
    for kernel in ("packed", "batched"):
        _assert_same_fixpoint(
            _solve_on(kernel, pattern, data, options), reference
        )


@given(patterns(), graphs(), st.sampled_from(STRATEGIES))
@settings(max_examples=40, deadline=None)
def test_batched_trajectory_matches_packed(pattern, data, product):
    """The batched engine's hazard flushing preserves not just the
    fixpoint but the whole evaluation trajectory: identical work
    counters on every input."""
    options = SolverOptions(product=product)
    packed = _solve_on("packed", pattern, data, options)
    batched = _solve_on("batched", pattern, data, options)
    _assert_same_fixpoint(batched, packed)
    assert batched.report.rounds == packed.report.rounds
    assert batched.report.evaluations == packed.report.evaluations
    assert batched.report.updates == packed.report.updates
    assert batched.report.bits_removed == packed.report.bits_removed


@given(patterns(), graphs(), st.sampled_from(STRATEGIES))
@settings(max_examples=40, deadline=None)
def test_packed_solver_matches_def2_reference(pattern, data, product):
    with use_kernel("packed"):
        result = largest_dual_simulation(
            pattern, data, SolverOptions(product=product)
        )
    assert result.to_relation() == largest_dual_simulation_reference(
        pattern, data
    )


@given(patterns(), graphs(), st.sampled_from(("sparsity", "dynamic")))
@settings(max_examples=40, deadline=None)
def test_orderings_agree_across_kernels(pattern, data, ordering):
    options = SolverOptions(ordering=ordering)
    reference = _solve_on("reference", pattern, data, options)
    for kernel in ("packed", "batched"):
        result = _solve_on(kernel, pattern, data, options)
        assert result.to_relation() == reference.to_relation()


# -- mid-solve label promotion over the tiered snapshot view -----------------


@st.composite
def databases(draw, max_nodes=10, max_edges=20):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    n_edges = draw(st.integers(min_value=1, max_value=max_edges))
    db = GraphDatabase()
    for i in range(n):
        db.add_node(f"n{i}")
    for _ in range(n_edges):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        label = draw(st.sampled_from(LABELS))
        db.add_triple(f"n{src}", label, f"n{dst}")
    return db


@st.composite
def string_patterns(draw, max_nodes=4, max_edges=6):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    n_edges = draw(st.integers(min_value=0, max_value=max_edges))
    g = Graph()
    for i in range(n):
        g.add_node(f"p{i}")
    for _ in range(n_edges):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        g.add_edge(
            f"p{src}", draw(st.sampled_from(LABELS)), f"p{dst}"
        )
    return g


@given(string_patterns(), databases(), st.sampled_from(STRATEGIES))
@settings(max_examples=25, deadline=None)
def test_kernels_agree_after_midsolve_promotion(pattern, db, product):
    """All three kernels reach the in-memory fixpoint and trajectory
    when every label starts cold on disk and is promoted on first
    touch mid-solve; for the batched kernel that appends freshly
    adopted rows to the already-populated block set."""
    from repro.storage import TieredGraphView, write_snapshot

    options = SolverOptions(product=product)
    soi = SystemOfInequalities.from_pattern_graph(pattern)
    with use_kernel("reference"):
        expected = solve(soi, db, options)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "graph.snap"
        # Every label starts on disk, so each first touch is a
        # promotion.
        write_snapshot(db, path)
        for kernel in KERNELS:
            view = TieredGraphView(path)
            assert view.residency().cold_labels == len(view.labels)
            with use_kernel(kernel):
                result = solve(
                    SystemOfInequalities.from_pattern_graph(pattern),
                    view, options,
                )
            assert result.total_bits() == expected.total_bits()
            assert result.report.rounds == expected.report.rounds
            assert result.report.evaluations == expected.report.evaluations
            assert result.report.updates == expected.report.updates
            assert (
                result.report.bits_removed == expected.report.bits_removed
            )
            touched = {
                edge.label for edge in expected.soi.edges
                if edge.label in view.labels
            }
            # Summary initialization reads every edge label's pair,
            # so exactly the query's labels promote, each once.
            promoted = view.residency().promoted_labels
            assert sorted(promoted) == sorted(touched)
            # Candidate *names*, not raw rows: the snapshot's node
            # numbering need not match the in-memory one.
            for var, reference_var in zip(
                result.soi.roots(), expected.soi.roots()
            ):
                assert result.candidates(var) == expected.candidates(
                    reference_var
                )
            view.close()
