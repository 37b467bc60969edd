"""Cached dual-simulation fixpoints on writable sessions.

The solver's answer is the *largest* dual simulation (Sect. 3.3): the
unique greatest fixpoint of the query's SOI over the data graph.  Each
edge inequality reads one label's matrix and a copy inequality reads
none, so a fixpoint cached at an earlier epoch stays exact as long as
no label the SOI reads has changed since
(:meth:`~repro.store.overlay.OverlayGraphView.changed_since`).  Nodes
added meanwhile only widen its rows with zero bits: a new node has no
edge in an unchanged label, and every variable of a compiled query is
the target of an edge inequality, so no row of the gfp holds it.

Any other change re-solves the branch cold.  Re-solving only part of
it does not pay: dual edges put inequalities in both directions, so a
change to one label of a connected branch can re-activate every
variable of that branch.

Two modes per branch, each counted in the metrics registry:

* ``reuse`` — a cached fixpoint exists, its row keys are this SOI's
  canonical roots, and no label the SOI reads changed since it was
  solved: its rows, widened to the current node count.
* ``cold`` — anything else: an ordinary solve.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from repro.bitvec import Bitset
from repro.core.soi import SystemOfInequalities
from repro.core.solver import SolverOptions, SolverReport, SolverResult, solve
from repro.obs.metrics import registry
from repro.obs.trace import current_tracer

__all__ = ["CachedFixpoint", "IncrementalSolver"]


class CachedFixpoint(NamedTuple):
    """One branch's last complete fixpoint and the epoch it was
    solved at."""

    epoch: int
    #: canonical root id -> fixpoint row (private copies).
    rows: Dict[int, Bitset]


class IncrementalSolver:
    """Per-query solve driver handed to the pipeline.

    One instance covers one ``prune()`` call; ``solve_branch`` replaces
    the pipeline's plain ``solve`` for each compiled branch, reusing
    the branch's cached fixpoint or solving cold, and caching the
    answer either way.  ``cache`` maps branch number to
    :class:`CachedFixpoint`; the session keeps one per query text.
    """

    def __init__(self, cache: Dict[int, CachedFixpoint]):
        self.cache = cache
        #: Mode of the last ``solve_branch`` call (observability).
        self.last_mode: Optional[str] = None

    def solve_branch(
        self,
        number: int,
        soi: SystemOfInequalities,
        data,
        options: SolverOptions,
    ) -> SolverResult:
        cached = self.cache.get(number)
        if cached is not None and _reusable(cached, soi, data):
            mode = "reuse"
            n = data.n_nodes
            rows = {vid: row.widened(n) for vid, row in cached.rows.items()}
            result = SolverResult(soi, data, rows, SolverReport())
        else:
            mode = "cold"
            result = solve(soi, data, options)

        registry().counter(_MODE_COUNTERS[mode]).inc()
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "incremental", branch=number, mode=mode, epoch=data.epoch
            )
        self.last_mode = mode
        self.cache[number] = CachedFixpoint(
            data.epoch, {vid: row.copy() for vid, row in result._rows.items()}
        )
        return result


def _reusable(
    cached: CachedFixpoint, soi: SystemOfInequalities, data
) -> bool:
    changed = data.changed_since(cached.epoch)
    if any(edge.label in changed for edge in soi.edges):
        return False
    return set(cached.rows) == {soi.find(root) for root in soi.roots()}


_MODE_COUNTERS = {
    "reuse": "incremental_reuses_total",
    "cold": "incremental_cold_solves_total",
}
