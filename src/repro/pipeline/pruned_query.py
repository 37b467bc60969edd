"""End-to-end pruned query processing (paper Sect. 5).

The pipeline mirrors the paper's experimental setup:

1. parse the query and normalize it into union-free branches;
2. compile each branch to an SOI and solve it (SPARQLSIM);
3. prune the database to the retained triples;
4. hand the *original* query to a conventional join engine, once on
   the full store and once on the pruned store;
5. report result counts, required triples, timings, and whether the
   pruned evaluation returned exactly the full result set (it must,
   by Theorem 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.core.checkpoint import (
    ExecutionLimits,
    PHASE_DYNAMIC,
    PHASE_STATIC,
    SolverCheckpoint,
)
from repro.core.compiler import CompiledQuery, compile_query
from repro.core.pruning import PruneResult, prune
from repro.core.solver import SolverOptions, SolverResult, solve
from repro.errors import DeadlineExceededError, StoreError
from repro.graph.database import GraphDatabase
from repro.obs.trace import current_tracer
from repro.sparql.ast import SelectQuery
from repro.sparql.parser import parse_query
from repro.store.engine import QueryEngine, QueryResult
from repro.store.triple_store import TripleStore


@dataclass
class PruneOutcome:
    """Artifacts of the pruning stage for one query."""

    query: SelectQuery
    compiled: List[CompiledQuery]
    solver_results: List[SolverResult]
    prune_result: PruneResult
    pruned_store: TripleStore
    t_simulation: float  # SOI solve + triple extraction (t_SPARQLSIM)

    @property
    def triples_after_pruning(self) -> int:
        return self.prune_result.n_triples_after

    @property
    def total_rounds(self) -> int:
        return sum(r.report.rounds for r in self.solver_results)


@dataclass
class PruneSuspension:
    """A pruning stage preempted mid-way (time quantum expired).

    ``branch_states`` holds one
    :class:`~repro.core.checkpoint.SolverCheckpoint` per union branch
    started so far: entries before ``branch_index`` are *completed*
    branches frozen as checkpoints with empty worklists (resuming one
    just rehydrates its rows and counters), the entry at
    ``branch_index`` — when present — is a genuine mid-solve
    suspension.  ``t_simulation`` accumulates prune-stage wall time
    across the segments so the final
    :attr:`PruneOutcome.t_simulation` matches an uninterrupted run's
    accounting.
    """

    query: SelectQuery
    branch_index: int
    branch_states: List[SolverCheckpoint] = field(default_factory=list)
    t_simulation: float = 0.0


def _frozen_branch_state(
    result: SolverResult, ordering: str
) -> SolverCheckpoint:
    """A completed branch as an empty-worklist checkpoint."""
    phase = PHASE_DYNAMIC if ordering == "dynamic" else PHASE_STATIC
    return SolverCheckpoint.capture(
        phase, result.data.n_nodes, result._rows, result.report,
        result.report.elapsed,
    )


def _remaining_limits(
    limits: Optional[ExecutionLimits], spent_ms: float
) -> Optional[ExecutionLimits]:
    """The per-branch budget left after ``spent_ms`` of this call.

    The quantum clamps at zero (a zero quantum still guarantees one
    evaluation of progress); an exhausted deadline raises immediately
    rather than handing the solver an invalid bound.
    """
    if limits is None:
        return None
    quantum = limits.quantum_ms
    if quantum is not None:
        quantum = max(0.0, quantum - spent_ms)
    deadline = limits.deadline_ms
    if deadline is not None:
        deadline -= spent_ms
        if deadline <= 0:
            raise DeadlineExceededError(
                f"deadline of {limits.deadline_ms:g} ms exhausted "
                "between union branches"
            )
    return ExecutionLimits(
        quantum_ms=quantum,
        deadline_ms=deadline,
        clock=limits.clock,
        preempt_after=limits.preempt_after,
    )


@dataclass
class PipelineReport:
    """One row of Tables 3/4/5 for one query.

    ``results_preserved`` is the paper's guarantee (Theorem 2): every
    full-database match also appears on the pruned database.
    ``results_equal`` additionally holds for monotone queries and for
    well-designed OPTIONAL patterns; *non*-well-designed patterns may
    legitimately gain extra (overapproximated) solutions on the pruned
    store — the paper frames the result as "an overapproximation of
    the actual SPARQL query results for further inspection" (Sect. 1)
    and ties exactness to well-designedness via weak monotonicity
    (Sect. 4.5).
    """

    name: str
    result_count: int = 0
    required_triples: int = 0
    triples_total: int = 0
    triples_after_pruning: int = 0
    t_simulation: float = 0.0
    t_db_full: float = 0.0
    t_db_pruned: float = 0.0
    rounds: int = 0
    results_equal: bool = True
    results_preserved: bool = True
    well_designed: bool = True

    @property
    def t_pruned_plus_sim(self) -> float:
        """The paper's 't_DB pruned + t_SPARQLSIM' column."""
        return self.t_db_pruned + self.t_simulation

    @property
    def prune_ratio(self) -> float:
        if self.triples_total == 0:
            return 0.0
        return 1.0 - self.triples_after_pruning / self.triples_total


class PruningPipeline:
    """Dual-simulation pruning in front of a join-based engine.

    The pipeline runs over any
    :class:`~repro.api.backend.GraphBackend` — the solver/pruning
    stages read adjacency from ``backend.graph``, the join engine
    reads indexes from ``backend.triple_store()`` — so memory- and
    snapshot-backed sessions share one code path.  The legacy
    ``PruningPipeline(graph_db)`` form still works (it wraps the
    database into an in-memory backend); sessions should construct a
    :class:`repro.Database` instead.
    """

    def __init__(
        self,
        db: Optional[GraphDatabase] = None,
        profile: str = "rdfox-like",
        solver_options: Optional[SolverOptions] = None,
        *,
        backend=None,
    ):
        if backend is None:
            from repro.api.backend import InMemoryBackend

            if db is None:
                raise ValueError(
                    "PruningPipeline needs a database or a backend"
                )
            backend = InMemoryBackend(db)
        elif db is not None:
            raise ValueError("pass either backend= or db, not both")
        self.backend = backend
        self.db = backend.graph
        self.profile = profile
        self.solver_options = solver_options or SolverOptions()
        self.store = backend.triple_store()
        # Pruned stores are built from the solver's node indices and
        # read through this store's dictionaries: one id space.
        if len(self.store.nodes) != self.db.n_nodes:
            raise StoreError(
                f"join store has {len(self.store.nodes)} node ids but "
                f"the graph has {self.db.n_nodes} nodes; a backend's "
                "store must use the graph's node indices"
            )
        self.engine = QueryEngine(self.store, profile)
        # The paper's tool keeps the adjacency matrices in memory as
        # part of the database (Sect. 3.3); build them at load time so
        # per-query timings do not pay one-off construction.  For a
        # TieredGraphView this is a no-op handle: cold labels stay
        # gap-encoded until a query touches them.
        self.db.matrices()

    # -- stages -----------------------------------------------------------

    def parse(self, query: SelectQuery | str) -> SelectQuery:
        if isinstance(query, str):
            with current_tracer().span("parse", n_chars=len(query)):
                return parse_query(query)
        return query

    def prune(
        self,
        query: SelectQuery | str,
        limits: Optional[ExecutionLimits] = None,
        resume: Optional[PruneSuspension] = None,
        incremental=None,
    ) -> Union[PruneOutcome, PruneSuspension]:
        """Stage 1-3: compile, solve, prune.  ``t_simulation`` covers
        the whole dual simulation processing (as in the paper).

        With ``limits`` the stage is preemptable: on quantum expiry a
        :class:`PruneSuspension` comes back instead of an outcome;
        pass it as ``resume`` to continue.  The stitched run's rows,
        counters, and ``t_simulation`` accounting match an
        uninterrupted one.  A blown deadline raises
        :class:`~repro.errors.DeadlineExceededError`.

        ``incremental`` (an
        :class:`~repro.core.incremental.IncrementalSolver`) swaps the
        per-branch solve for cached-fixpoint maintenance; it only
        engages on unbounded, non-resumed runs — a branch resumed from
        a real checkpoint must continue that exact trajectory.
        """
        query = self.parse(query)
        tracer = current_tracer()
        start = time.perf_counter()
        with tracer.span("compile"):
            compiled = compile_query(query)
        results: List[SolverResult] = []
        t_prior = 0.0
        start_branch = 0
        branch_resume: Optional[SolverCheckpoint] = None
        if resume is not None:
            t_prior = resume.t_simulation
            start_branch = resume.branch_index
            # Rehydrate completed branches: resuming an empty-worklist
            # checkpoint restores rows and counters without solving.
            for state in resume.branch_states[:start_branch]:
                results.append(
                    solve(
                        compiled[len(results)].soi, self.db,
                        self.solver_options, resume=state,
                    )
                )
            if len(resume.branch_states) > start_branch:
                branch_resume = resume.branch_states[start_branch]
        for number in range(start_branch, len(compiled)):
            branch_limits = _remaining_limits(
                limits, (time.perf_counter() - start) * 1000.0
            )
            with tracer.span("prune", branch=number) as span:
                if (
                    incremental is not None
                    and branch_resume is None
                    and branch_limits is None
                ):
                    result = incremental.solve_branch(
                        number, compiled[number].soi, self.db,
                        self.solver_options,
                    )
                else:
                    result = solve(
                        compiled[number].soi, self.db,
                        self.solver_options,
                        limits=branch_limits, resume=branch_resume,
                    )
                span.set_attributes(
                    rounds=result.report.rounds,
                    complete=result.complete,
                )
            branch_resume = None
            if not result.complete:
                ordering = self.solver_options.ordering
                states = [
                    _frozen_branch_state(done, ordering)
                    for done in results
                ]
                states.append(result.checkpoint)
                return PruneSuspension(
                    query=query,
                    branch_index=number,
                    branch_states=states,
                    t_simulation=(
                        t_prior + time.perf_counter() - start
                    ),
                )
            results.append(result)
        with tracer.span("extract") as span:
            prune_result = prune(self.db, results)
            t_simulation = t_prior + time.perf_counter() - start
            pruned_store = prune_result.to_store(self.store)
            span.set_attribute(
                "triples_after", prune_result.n_triples_after
            )
        return PruneOutcome(
            query=query,
            compiled=compiled,
            solver_results=results,
            prune_result=prune_result,
            pruned_store=pruned_store,
            t_simulation=t_simulation,
        )

    def evaluate_full(self, query: SelectQuery | str) -> QueryResult:
        return self.engine.execute(self.parse(query))

    def evaluate_pruned(
        self,
        query: SelectQuery | str,
        outcome: Optional[PruneOutcome] = None,
    ) -> Tuple[QueryResult, PruneOutcome]:
        query = self.parse(query)
        if outcome is None:
            outcome = self.prune(query)
        pruned_engine = QueryEngine(outcome.pruned_store, self.profile)
        return pruned_engine.execute(query), outcome

    def ask(
        self, query, limits: Optional[ExecutionLimits] = None
    ) -> bool:
        """ASK with the dual simulation fast path (Sect. 5: 'for
        queries with 0 triples left, there is no need for any further
        query evaluation').  ``limits`` may carry a deadline; ASK has
        no continuation surface, so a quantum is ignored here."""
        if isinstance(query, str):
            from repro.sparql.parser import parse_query as _parse
            query = _parse(query)
        pattern = query.pattern
        select = SelectQuery(None, pattern)
        if limits is not None and (
            limits.quantum_ms is not None
            or limits.preempt_after is not None
        ):
            limits = ExecutionLimits(
                deadline_ms=limits.deadline_ms, clock=limits.clock
            )
        outcome = self.prune(select, limits=limits)
        if outcome.triples_after_pruning == 0:
            return False
        pruned_engine = QueryEngine(outcome.pruned_store, self.profile)
        return pruned_engine.ask(select)

    # -- full experiment -------------------------------------------------------

    def run(self, query: SelectQuery | str, name: str = "query") -> PipelineReport:
        """Run the complete experiment for one query."""
        from repro.sparql.ast import is_well_designed

        query = self.parse(query)
        full = self.evaluate_full(query)
        outcome = self.prune(query)
        pruned, _ = self.evaluate_pruned(query, outcome)
        full_set = full.as_set()
        pruned_set = pruned.as_set()
        return PipelineReport(
            name=name,
            result_count=len(full),
            required_triples=len(full.required_triples()),
            triples_total=self.store.n_triples,
            triples_after_pruning=outcome.triples_after_pruning,
            t_simulation=outcome.t_simulation,
            t_db_full=full.elapsed,
            t_db_pruned=pruned.elapsed,
            rounds=outcome.total_rounds,
            results_equal=full_set == pruned_set,
            results_preserved=full_set <= pruned_set,
            well_designed=is_well_designed(query.pattern),
        )
