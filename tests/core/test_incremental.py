"""The fixpoint cache: reuse or re-solve cold.

A cached fixpoint is reused exactly when no label its SOI reads has
changed since it was solved (new nodes only widen its rows with zero
bits); anything else solves cold.  Either way the answer is the
greatest fixpoint a cold solve over the current graph finds.
"""

import pytest

import repro.core.solver as solver_module
from repro.core import SolverOptions, solve
from repro.core.incremental import IncrementalSolver
from repro.api.backend import InMemoryBackend
from repro.core.soi import SystemOfInequalities
from repro.graph import example_movie_database
from repro.obs.metrics import registry
from repro.store.overlay import OverlayGraphView


def _chain_soi():
    """a -p-> b -q-> c (dual)."""
    soi = SystemOfInequalities()
    a = soi.new_variable("a")
    b = soi.new_variable("b")
    c = soi.new_variable("c")
    soi.add_edge_constraint(a, "p", b)
    soi.add_edge_constraint(b, "q", c)
    return soi


def _directed_soi():
    soi = SystemOfInequalities()
    d = soi.new_variable("?d")
    m = soi.new_variable("?m")
    soi.add_edge_constraint(d, "directed", m)
    return soi


def _rows(result):
    return {vid: row.to_frozenset() for vid, row in result._rows.items()}


def _mode_count(mode):
    return registry().counter(
        f"incremental_{mode}s_total"
        if mode != "cold"
        else "incremental_cold_solves_total"
    ).value


class TestIncrementalSolver:
    @pytest.fixture
    def view(self):
        return OverlayGraphView(InMemoryBackend(example_movie_database()))

    def _solver(self):
        return IncrementalSolver({})

    def test_first_solve_is_cold_then_reuse(self, view):
        soi = _directed_soi()
        solver = self._solver()
        r1 = solver.solve_branch(0, soi, view, SolverOptions())
        assert solver.last_mode == "cold"
        assert r1.complete
        r2 = solver.solve_branch(0, soi, view, SolverOptions())
        assert solver.last_mode == "reuse"
        assert _rows(r2) == _rows(r1)

    @pytest.mark.parametrize("ordering", ["sparsity", "dynamic"])
    def test_read_label_change_resolves_cold(self, view, ordering):
        soi = _directed_soi()
        options = SolverOptions(ordering=ordering)
        solver = self._solver()
        solver.solve_branch(0, soi, view, options)
        view.apply(retracts=[("G. Hamilton", "directed", "Goldfinger")])
        before = _mode_count("cold")
        result = solver.solve_branch(0, soi, view, options)
        assert solver.last_mode == "cold"
        assert _mode_count("cold") == before + 1
        assert _rows(result) == _rows(solve(_directed_soi(), view, options))

    def test_outside_label_change_reuses_without_initial_rows(
        self, view, monkeypatch
    ):
        soi = _directed_soi()
        solver = self._solver()
        r1 = solver.solve_branch(0, soi, view, SolverOptions())
        view.apply(retracts=[("B. De Palma", "awarded", "Oscar")])
        calls = []
        initial_rows = solver_module._initial_rows

        def counting(*args, **kwargs):
            calls.append(args)
            return initial_rows(*args, **kwargs)

        monkeypatch.setattr(solver_module, "_initial_rows", counting)
        before = _mode_count("reuse")
        r2 = solver.solve_branch(0, soi, view, SolverOptions())
        assert solver.last_mode == "reuse"
        assert _mode_count("reuse") == before + 1
        assert calls == []
        assert _rows(r2) == _rows(r1)

    def test_node_growth_in_outside_label_widens_cached_rows(self, view):
        soi = _directed_soi()
        solver = self._solver()
        solver.solve_branch(0, soi, view, SolverOptions())
        n_before = view.n_nodes
        view.apply(adds=[("New Director", "awarded", "New Prize")])
        assert view.n_nodes == n_before + 2
        result = solver.solve_branch(0, soi, view, SolverOptions())
        assert solver.last_mode == "reuse"
        assert all(row.nbits == view.n_nodes for row in result._rows.values())
        cold = solve(_directed_soi(), view, SolverOptions())
        assert _rows(result) == _rows(cold)

    def test_node_growth_resolves_cold(self, view):
        soi = _directed_soi()
        solver = self._solver()
        solver.solve_branch(0, soi, view, SolverOptions())
        # The new nodes arrive on `directed`, a label the query reads.
        view.apply(adds=[("New Director", "directed", "New Movie")])
        result = solver.solve_branch(0, soi, view, SolverOptions())
        assert solver.last_mode == "cold"
        assert _rows(result) == _rows(solve(_directed_soi(), view, SolverOptions()))

    def test_recompiled_roots_resolve_cold(self, view):
        solver = self._solver()
        solver.solve_branch(0, _chain_soi(), view, SolverOptions())
        # Same branch number, structurally different SOI: cached row
        # keys no longer match the canonical roots.
        solver.solve_branch(0, _directed_soi(), view, SolverOptions())
        assert solver.last_mode == "cold"

    def test_incomplete_results_never_cached(self, view):
        soi = _directed_soi()
        solver = self._solver()
        solver.solve_branch(0, soi, view, SolverOptions())
        assert 0 in solver.cache
        # A bounded solve bypasses the cache, so a branch can lack an
        # entry; simulate that by evicting it.
        solver.cache.pop(0)
        solver.solve_branch(0, soi, view, SolverOptions())
        assert solver.last_mode == "cold"
