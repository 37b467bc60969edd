"""`repro.Database` — the one entry point for query sessions.

The paper's pipeline (parse -> compile to SOI -> solve -> prune ->
join-evaluate, Sect. 5) used to require hand-wiring four classes and
an environment variable.  The façade collapses that into::

    from repro import Database

    db = Database.from_workload("lubm", scale=2)
    for row in db.query("SELECT * WHERE { ?s advisor ?p . }"):
        print(row)

Construction picks the storage backend (`in_memory`, `open` a
snapshot, `from_triples`, `from_ntriples`, `from_workload`); an
:class:`~repro.api.profile.ExecutionProfile` carries every execution
knob; results stream out of a lazily-decoded
:class:`~repro.api.result.ResultSet`.  Everything underneath speaks
the :class:`~repro.api.backend.GraphBackend` protocol, so the same
session code runs over memory or snapshot storage byte-identically.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.api.backend import (
    GraphBackend,
    InMemoryBackend,
    NameTriple,
    SnapshotBackend,
    backend_capabilities,
)
from repro.api.continuation import (
    SuspendedQuery,
    decode_token,
    encode_token,
    fingerprint,
)
from repro.api.profile import ExecutionProfile
from repro.api.result import (
    BranchSimulation,
    PruneSummary,
    ResultSet,
    SimulationOutcome,
)
from repro.core.degrade import DegradationEvent, capture_events
from repro.core.incremental import CachedFixpoint, IncrementalSolver
from repro.errors import (
    ContinuationError,
    ReproError,
    UnsupportedOperationError,
)
from repro.obs.metrics import COUNT_BUCKETS, registry
from repro.obs.trace import Tracer, activate, current_tracer
from repro.storage.tiered import ResidencyReport

ProfileLike = Union[ExecutionProfile, str, None]

#: Snapshot backends shared across `Database.open(..., cached=True)`
#: calls, keyed by (resolved path, mtime_ns, size) so a rebuilt
#: snapshot never serves stale blocks.
_OPEN_CACHE: Dict[Tuple[str, int, int], SnapshotBackend] = {}

#: Guards every _OPEN_CACHE access.  Held across backend construction
#: in :meth:`Database.open` so two threads racing to open the same
#: snapshot share one backend instead of leaking a second mmap.
_OPEN_CACHE_LOCK = threading.Lock()


def clear_open_cache() -> None:
    """Close and forget every cached snapshot backend."""
    with _OPEN_CACHE_LOCK:
        backends = list(_OPEN_CACHE.values())
        _OPEN_CACHE.clear()
    for backend in backends:
        backend.close()


def _open_cache_after_fork() -> None:
    # A forked child inherits the parent's cache entries, but their
    # mmaps/fds and the cache lock's state belong to the parent:
    # closing them here would yank pages out from under it.  Drop the
    # references (the parent still owns the real handles) and start
    # from a fresh, guaranteed-unlocked lock.
    global _OPEN_CACHE_LOCK
    _OPEN_CACHE_LOCK = threading.Lock()
    _OPEN_CACHE.clear()


os.register_at_fork(after_in_child=_open_cache_after_fork)


@dataclass
class DatabaseStats:
    """`Database.stats()` — one flat snapshot of a session.

    ``residency`` is the report captured when :meth:`Database.stats`
    ran.
    """

    backend: str
    n_triples: int
    n_nodes: int
    n_labels: int
    profile: ExecutionProfile
    path: Optional[Path] = None
    residency: Optional[ResidencyReport] = None
    #: Kernel fallbacks recorded during this session's operations
    #: (batched → packed → reference), oldest first.
    degradations: Tuple[DegradationEvent, ...] = ()
    #: Process-wide metrics snapshot (counters + histogram summaries
    #: from :func:`repro.obs.metrics.registry`) taken when
    #: :meth:`Database.stats` ran.
    metrics: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "backend": self.backend,
            "n_triples": self.n_triples,
            "n_nodes": self.n_nodes,
            "n_labels": self.n_labels,
            "engine": self.profile.engine,
            "pruning": self.profile.pruning,
            "kernel": self.profile.resolved_kernel(),
        }
        if self.path is not None:
            out["path"] = str(self.path)
        if self.residency is not None:
            out["residency"] = {
                "cold_labels": self.residency.cold_labels,
                "promotions": self.residency.promotions,
                "resident_labels": self.residency.resident_labels,
                "resident_bytes": self.residency.resident_bytes,
                "on_disk_bytes": self.residency.on_disk_bytes,
                "promotion_retries": self.residency.promotion_retries,
            }
        if self.degradations:
            out["degradations"] = [
                event.to_dict() for event in self.degradations
            ]
        if self.metrics is not None:
            out["metrics"] = self.metrics
        return out


class Database:
    """A query session over one :class:`GraphBackend`."""

    def __init__(self, backend: GraphBackend, profile: ProfileLike = None):
        self.backend = backend
        self.profile = ExecutionProfile.coerce(profile)
        self._pipeline = None
        self._advisor = None
        self._cache_key: Optional[Tuple[str, int, int]] = None
        self._degradations: list = []
        # Query text -> branch number -> cached fixpoint, on writable
        # sessions; epochs (not resets) handle staleness.
        self._fixpoints: Dict[str, Dict[int, CachedFixpoint]] = {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        profile: ProfileLike = None,
        cached: bool = True,
    ) -> "Database":
        """Open a snapshot file built by ``repro db build``.

        With ``cached`` (the default), snapshot backends are shared
        process-wide per (path, mtime, size): repeated opens of the
        same file reuse the mmap, the tiered view (already-promoted
        labels included), and the lazily built join-engine store
        instead of rebuilding them per call.
        """
        path = Path(path)
        key: Optional[Tuple[str, int, int]] = None
        if cached:
            try:
                stat = path.stat()
                key = (str(path.resolve()), stat.st_mtime_ns, stat.st_size)
            except OSError:
                key = None  # let SnapshotReader raise its own error
        if key is None:
            db = cls(SnapshotBackend(path), profile)
            db._cache_key = None
            return db
        evicted = []
        with _OPEN_CACHE_LOCK:
            backend = _OPEN_CACHE.get(key)
            if backend is None:
                # Held across construction on purpose: two threads
                # racing to open the same snapshot must share one
                # backend, not leak a second mmap (check-then-insert
                # was unlocked before PR 10).
                backend = SnapshotBackend(path)
                # A rebuilt snapshot gets a new (mtime, size) key; the
                # entry under the old key would otherwise pin its mmap
                # for the life of the process.  Evict same-path
                # predecessors now.
                for old in [
                    k for k in _OPEN_CACHE
                    if k[0] == key[0] and k != key
                ]:
                    evicted.append(_OPEN_CACHE.pop(old))
                _OPEN_CACHE[key] = backend
        for stale_backend in evicted:
            stale_backend.close()
        db = cls(backend, profile)
        db._cache_key = key
        return db

    @classmethod
    def in_memory(cls, db=None, profile: ProfileLike = None) -> "Database":
        """Wrap a :class:`~repro.graph.database.GraphDatabase` (or
        start empty) as an in-memory session."""
        return cls(InMemoryBackend(db), profile)

    @classmethod
    def writable(cls, db=None, profile: ProfileLike = None) -> "Database":
        """An in-memory session that accepts writes.

        Wraps the (possibly empty) database in an
        :class:`~repro.store.overlay.OverlayBackend` so :meth:`add`,
        :meth:`retract` and :meth:`compact` work, and a repeated query
        reuses its cached fixpoint while no label it reads has changed
        (see ``ExecutionProfile.incremental``).
        """
        from repro.store.overlay import OverlayBackend

        return cls(OverlayBackend(InMemoryBackend(db)), profile)

    @classmethod
    def edit(
        cls, path: Union[str, Path], profile: ProfileLike = None
    ) -> "Database":
        """Open a snapshot for editing.

        The snapshot file itself stays immutable: writes accumulate in
        an in-memory :class:`~repro.store.overlay.OverlayBackend`
        delta on top of it, and :meth:`compact` folds base + delta
        into a fresh snapshot.  The backend is private to this session
        (never shared through the open-cache — a cached read-only
        backend must not see another session's delta).
        """
        from repro.store.overlay import OverlayBackend

        return cls(OverlayBackend(SnapshotBackend(path)), profile)

    @classmethod
    def connect(
        cls,
        url: str,
        profile: ProfileLike = None,
        timeout: float = 30.0,
    ) -> "Database":
        """Connect to a ``repro serve`` HTTP endpoint.

        The session speaks the same surface as a local one —
        :meth:`query`, :meth:`ask`, :meth:`resume`, :meth:`stats` —
        over a :class:`~repro.serve.client.RemoteBackend`.  When the
        server suspends a query at its time quantum (HTTP 206), the
        client re-submits the continuation transparently until the
        result completes, so calling code never sees a partial
        result.  Execution knobs (engine, kernel, quantum)
        are the *server's*; of the local profile only the pruning
        mode travels with each request.  Server-side operations
        (``simulate``, ``explain``, ``benchmark``) raise
        :class:`~repro.errors.ReproError` on a remote session.
        """
        from repro.serve.client import RemoteBackend

        return cls(RemoteBackend(url, timeout=timeout), profile)

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[NameTriple],
        profile: ProfileLike = None,
    ) -> "Database":
        """Build an in-memory session from (subject, predicate,
        object) triples."""
        from repro.graph.database import GraphDatabase

        return cls.in_memory(GraphDatabase.from_triples(triples), profile)

    @classmethod
    def from_ntriples(
        cls, source: Union[str, Path], profile: ProfileLike = None
    ) -> "Database":
        """Parse an N-Triples file (or text) into an in-memory
        session."""
        from repro.graph.io import load_ntriples

        return cls.in_memory(load_ntriples(source), profile)

    @classmethod
    def from_workload(
        cls,
        name: str,
        scale: int = 1,
        profile: ProfileLike = None,
        cache_dir: Optional[Union[str, Path]] = None,
        seed: Optional[int] = None,
        **overrides,
    ) -> "Database":
        """Generate one of the evaluation workloads.

        ``name`` is ``"lubm"`` (``scale`` = universities),
        ``"dbpedia"`` (``scale`` = entity multiplier) or ``"movies"``
        (the fixed Fig. 1(a) database).  Extra ``overrides`` go to the
        generator config.  For LUBM, passing ``cache_dir`` switches to
        the build-once/open-many path: the workload is serialized to a
        snapshot under that directory on first use and every later
        call is a cheap snapshot open.
        """
        kind = name.lower()
        if seed is not None:
            overrides["seed"] = seed
        if kind == "lubm":
            from repro.workloads import build_lubm_snapshot, generate_lubm

            overrides.setdefault("n_universities", scale)
            if cache_dir is not None:
                path = build_lubm_snapshot(cache_dir, **overrides)
                return cls.open(path, profile)
            return cls.in_memory(generate_lubm(**overrides), profile)
        if cache_dir is not None:
            raise ReproError(
                "cache_dir is only supported for the 'lubm' workload, "
                f"not {name!r}"
            )
        if kind == "dbpedia":
            from repro.workloads import generate_dbpedia

            overrides.setdefault("scale", scale)
            return cls.in_memory(generate_dbpedia(**overrides), profile)
        if kind == "movies":
            if overrides or scale != 1:
                raise ReproError(
                    "the 'movies' workload is the fixed Fig. 1(a) "
                    "database and takes no scale/seed/overrides"
                )
            from repro.graph.database import example_movie_database

            return cls.in_memory(example_movie_database(), profile)
        raise ReproError(
            f"unknown workload {name!r}; choose from "
            "('lubm', 'dbpedia', 'movies')"
        )

    # -- write surface ----------------------------------------------------

    def capabilities(self):
        """This session's declared
        :class:`~repro.api.backend.BackendCapabilities`."""
        return backend_capabilities(self.backend)

    def _require_writable(self, operation: str) -> None:
        if not backend_capabilities(self.backend).writable:
            raise UnsupportedOperationError(
                f"{operation} needs a writable backend; open the "
                "session with Database.writable() or "
                "Database.edit(path) instead (this backend is "
                f"{self.backend.kind!r})"
            )

    def add(self, triples: Iterable[NameTriple]) -> int:
        """Assert (subject, predicate, object) triples; returns how
        many were actually new (RDF set semantics — re-adding a
        present triple is a no-op).

        Unknown subjects/objects extend the node space; adding a
        triple retracted earlier simply cancels the retraction.
        A cached query fixpoint is reused while no label its query
        reads has changed, so a triple that only adds nodes costs the
        next query no re-solve (see :mod:`repro.core.incremental`).
        """
        self._require_writable("add")
        applied = self.backend.add(triples)
        if applied:
            self._advisor = None
        return applied

    def retract(self, triples: Iterable[NameTriple]) -> int:
        """Retract triples; returns how many were actually present.
        Retracting an absent triple is a no-op; nodes are never
        removed (the index space only grows)."""
        self._require_writable("retract")
        applied = self.backend.retract(triples)
        if applied:
            self._advisor = None
        return applied

    def compact(self, out_path: Union[str, Path]):
        """Fold base + delta into a fresh snapshot at ``out_path``.

        The written file is byte-equivalent to building a snapshot
        from a database that never had the delta: reopening it with
        :meth:`open` (or :meth:`edit`) answers every query exactly as
        this overlay session does.  Returns the writer's
        :class:`~repro.storage.writer.WriteReport`.
        """
        self._require_writable("compact")
        from repro.storage.writer import SnapshotWriter

        return SnapshotWriter(Path(out_path)).write(self.backend.graph)

    # -- internals --------------------------------------------------------

    def _incremental_for(self, query, limits):
        """An :class:`~repro.core.incremental.IncrementalSolver` for
        this (query, session), or None to solve normally.

        The fixpoint cache needs an epoch-tracking backend (the
        overlay), the profile knob on, unbounded execution (a bounded
        solve may suspend short of the fixpoint), and the query as
        text (it is the cache key).
        """
        if limits is not None or not self.profile.incremental:
            return None
        if not isinstance(query, str):
            return None
        if not hasattr(self.backend.graph, "changed_since"):
            return None
        return IncrementalSolver(self._fixpoints.setdefault(query, {}))

    def _pipeline_for(self):
        if self._pipeline is None:
            from repro.pipeline.pruned_query import PruningPipeline

            self._pipeline = PruningPipeline(
                profile=self.profile.engine,
                solver_options=self.profile.solver_options(),
                backend=self.backend,
            )
        return self._pipeline

    def _engine(self):
        return self._pipeline_for().engine

    def _require_local(self, operation: str) -> None:
        """Operations that need the engine in-process cannot run over
        a remote connection."""
        if backend_capabilities(self.backend).remote:
            raise UnsupportedOperationError(
                f"{operation} is not available over a remote "
                "connection; run it in the serving process (or open "
                "the snapshot locally)"
            )

    def advise(self, query):
        """The Sect. 5.3 statistics advisor's verdict for one query
        under this session's engine profile."""
        self._require_local("advise")
        if self._advisor is None:
            from repro.pipeline.advisor import PruningAdvisor

            self._advisor = PruningAdvisor(self.backend.triple_store())
        return self._advisor.advise(query, self.profile.engine)

    # -- query surface ----------------------------------------------------

    def query(
        self,
        query,
        mode: Optional[str] = None,
        trace: Optional[bool] = None,
        ) -> ResultSet:
        """Evaluate a SELECT query; returns a streaming
        :class:`ResultSet`.

        ``mode`` overrides the profile's pruning mode for this call:
        ``"full"`` goes straight to the join engine, ``"pruned"``
        prunes via dual simulation first (Theorem 2 preserves all
        answers; non-well-designed OPTIONALs may gain overapproximated
        ones, as in the paper), ``"auto"`` asks the advisor.

        ``trace=True`` (or a profile ``trace=True``) collects a
        query-lifecycle trace: the returned result carries a
        :class:`~repro.obs.trace.Tracer` as ``.trace`` whose span tree
        covers parse, advise, per-branch prune/solve, extraction, and
        the join — render it with :func:`repro.obs.render_profile` or
        export JSONL via ``result.trace.write_jsonl(path)``.

        Under a profile ``time_quantum_ms``, the dual-simulation stage
        is preemptable: when the quantum expires the call returns a
        *partial* :class:`ResultSet` (``complete`` is False, no rows)
        whose ``continuation`` token resumes the exact same execution
        via :meth:`resume` — on this session or any compatible one.
        A profile ``deadline_ms`` instead raises
        :class:`~repro.errors.DeadlineExceededError` on expiry.
        """
        if not (self.profile.trace if trace is None else trace):
            return self._execute_query(query, mode)
        tracer = Tracer()
        with activate(tracer), tracer.span(
            "query",
            engine=self.profile.engine,
            kernel=self.profile.resolved_kernel(),
        ) as root:
            result = self._execute_query(query, mode)
            root.set_attributes(
                mode=result.mode, complete=result.complete
            )
        result.trace = tracer
        return result

    def _execute_query(self, query, mode: Optional[str]) -> ResultSet:
        mode = mode or self.profile.pruning
        if mode not in ("pruned", "full", "auto"):
            raise ReproError(
                f"unknown query mode {mode!r}; choose from "
                "('pruned', 'full', 'auto')"
            )
        remote = getattr(self.backend, "remote_query", None)
        if remote is not None:
            if not isinstance(query, str):
                raise ReproError(
                    "remote execution needs the query as SPARQL text"
                )
            started = time.perf_counter()
            result = remote(query, mode=mode)
            self._note_query(started)
            return result
        tracer = current_tracer()
        advised = False
        limits = self.profile.execution_limits()
        started = time.perf_counter()
        with self.profile.kernel_context(), \
                capture_events(self._degradations):
            with tracer.span("prepare"):
                pipeline = self._pipeline_for()
            # Parsed once; the text stays for the continuation token
            # and the incremental cache key.
            parsed = pipeline.parse(query)
            if mode == "auto":
                with tracer.span("advise") as span:
                    mode = (
                        "pruned" if self.advise(parsed).recommended
                        else "full"
                    )
                    span.set_attribute("decision", mode)
                advised = True
            if mode == "full":
                with tracer.span("join", mode="full") as span:
                    result = pipeline.evaluate_full(parsed)
                    if tracer.enabled:
                        span.set_attribute(
                            "solutions", len(result.solutions)
                        )
                summary = None
            else:
                outcome = pipeline.prune(
                    parsed, limits=limits,
                    incremental=self._incremental_for(query, limits),
                )
                if self._is_suspension(outcome):
                    self._note_query(started, suspended=True)
                    return self._suspend(query, outcome, advised)
                with tracer.span("join", mode="pruned") as span:
                    result, outcome = pipeline.evaluate_pruned(
                        parsed, outcome
                    )
                    if tracer.enabled:
                        span.set_attribute(
                            "solutions", len(result.solutions)
                        )
                summary = PruneSummary(
                    triples_total=self.backend.n_triples,
                    triples_after=outcome.triples_after_pruning,
                    rounds=outcome.total_rounds,
                    t_simulation=outcome.t_simulation,
                )
        self._note_query(started, summary=summary)
        return ResultSet(result, mode=mode, pruning=summary, advised=advised)

    @staticmethod
    def _note_query(
        started: float,
        summary: Optional[PruneSummary] = None,
        suspended: bool = False,
    ) -> None:
        """Record one query's process-wide metrics."""
        reg = registry()
        reg.counter("queries_total").inc()
        reg.histogram("query_latency_ms").record(
            (time.perf_counter() - started) * 1000.0
        )
        if suspended:
            reg.counter("query_suspensions_total").inc()
        if summary is not None:
            reg.histogram("solver_rounds", COUNT_BUCKETS).record(
                summary.rounds
            )

    @staticmethod
    def _is_suspension(outcome) -> bool:
        from repro.pipeline.pruned_query import PruneSuspension

        return isinstance(outcome, PruneSuspension)

    def _suspend(self, query, suspension, advised: bool) -> ResultSet:
        """Wrap a prune-stage suspension into a partial ResultSet."""
        if not isinstance(query, str):
            raise ReproError(
                "preemptable execution needs the query as SPARQL text "
                "(the continuation token embeds it); pass the query "
                "string instead of a parsed AST"
            )
        token = encode_token(
            SuspendedQuery(
                query_text=query,
                branch_index=suspension.branch_index,
                branch_states=suspension.branch_states,
                t_simulation=suspension.t_simulation,
                advised=advised,
            ),
            fingerprint(query, self.backend, self.profile.solver),
        )
        return ResultSet(
            None, mode="pruned", advised=advised,
            complete=False, continuation=token,
        )

    def resume(
        self,
        token: Union[str, ResultSet],
        trace: Optional[bool] = None,
    ) -> ResultSet:
        """Continue a query suspended by the time quantum.

        Accepts the token string or the partial :class:`ResultSet`
        itself.  The token is CRC-sealed and fingerprint-bound:
        corrupted tokens, tokens from another query/database/snapshot,
        or tokens taken under different solver strategy raise
        :class:`~repro.errors.ContinuationError`.  The quantum applies
        afresh to this call, so resumption may itself suspend again;
        loop until ``result.complete``.  ``trace`` works as in
        :meth:`query`, rooting the span tree at ``resume``.
        """
        registry().counter("continuation_resumes_total").inc()
        if not (self.profile.trace if trace is None else trace):
            return self._execute_resume(token)
        tracer = Tracer()
        with activate(tracer), tracer.span(
            "resume", engine=self.profile.engine
        ) as root:
            result = self._execute_resume(token)
            root.set_attribute("complete", result.complete)
        result.trace = tracer
        return result

    def _execute_resume(self, token: Union[str, ResultSet]) -> ResultSet:
        if isinstance(token, ResultSet) or not isinstance(token, str):
            continuation = getattr(token, "continuation", None)
            if continuation is None:
                raise ContinuationError(
                    "this ResultSet is complete; nothing to resume"
                )
            token = continuation
        remote = getattr(self.backend, "remote_resume", None)
        if remote is not None:
            started = time.perf_counter()
            result = remote(token)
            self._note_query(started)
            return result
        fp, suspension = decode_token(token)
        expected = fingerprint(
            suspension.query_text, self.backend, self.profile.solver
        )
        if fp != expected:
            raise ContinuationError(
                "stale continuation token: it was issued for a "
                "different query, database snapshot, or solver "
                "configuration",
                reason="stale",
            )
        from repro.pipeline.pruned_query import PruneSuspension

        tracer = current_tracer()
        limits = self.profile.execution_limits()
        started = time.perf_counter()
        with self.profile.kernel_context(), \
                capture_events(self._degradations):
            pipeline = self._pipeline_for()
            parsed = pipeline.parse(suspension.query_text)
            resume_state = PruneSuspension(
                query=parsed,
                branch_index=suspension.branch_index,
                branch_states=suspension.branch_states,
                t_simulation=suspension.t_simulation,
            )
            outcome = pipeline.prune(
                parsed, limits=limits, resume=resume_state
            )
            if self._is_suspension(outcome):
                self._note_query(started, suspended=True)
                return self._suspend(
                    suspension.query_text, outcome, suspension.advised
                )
            with tracer.span("join", mode="pruned") as span:
                result, outcome = pipeline.evaluate_pruned(parsed, outcome)
                if tracer.enabled:
                    span.set_attribute(
                        "solutions", len(result.solutions)
                    )
            summary = PruneSummary(
                triples_total=self.backend.n_triples,
                triples_after=outcome.triples_after_pruning,
                rounds=outcome.total_rounds,
                t_simulation=outcome.t_simulation,
            )
        self._note_query(started, summary=summary)
        return ResultSet(
            result, mode="pruned", pruning=summary,
            advised=suspension.advised,
        )

    def ask(self, query) -> bool:
        """ASK semantics with the dual-simulation fast path (an empty
        simulation answers 'no' without touching the join engine).

        Honors the profile ``deadline_ms`` (never suspends — ASK has
        no continuation surface)."""
        remote = getattr(self.backend, "remote_ask", None)
        if remote is not None:
            return remote(query)
        limits = self.profile.execution_limits(include_quantum=False)
        with self.profile.kernel_context(), \
                capture_events(self._degradations):
            answer = self._pipeline_for().ask(query, limits=limits)
        return answer

    def simulate(self, query) -> SimulationOutcome:
        """Compile the query to systems of inequalities and compute
        the largest dual simulation per union branch (Sect. 3/4).

        Runs entirely on the solver side of the backend — a snapshot
        session promotes only the labels the query touches and never
        builds the join-engine store.
        """
        self._require_local("simulate")
        from repro.core.compiler import compile_query
        from repro.core.solver import solve

        branches = []
        limits = self.profile.execution_limits(include_quantum=False)
        with self.profile.kernel_context(), \
                capture_events(self._degradations):
            for number, compiled in enumerate(compile_query(query)):
                solved = solve(
                    compiled.soi, self.backend.graph,
                    self.profile.solver_options(), limits=limits,
                )
                candidates: Dict[str, Tuple[Hashable, ...]] = {}
                for variable in sorted(compiled.variables(), key=str):
                    names: Set[Hashable] = set()
                    for vid in compiled.all_vids(variable):
                        names |= solved.candidates(vid)
                    candidates[variable.name] = tuple(
                        sorted(names, key=str)
                    )
                branches.append(
                    BranchSimulation(
                        index=number,
                        soi=compiled.soi.describe(),
                        report=solved.report,
                        candidates=candidates,
                    )
                )
        return SimulationOutcome(branches)

    def explain(self, query) -> str:
        """Human-readable account of how this session would run the
        query: backend, pruning decision, then the join engine's plan."""
        self._require_local("explain")
        stats = self.backend.stats()
        lines = [
            f"backend: {self.backend.kind} "
            f"({stats['n_triples']} triples, {stats['n_nodes']} nodes, "
            f"{stats['n_labels']} labels)"
        ]
        mode = self.profile.pruning
        if mode == "auto":
            advice = self.advise(query)
            decision = "pruned" if advice.recommended else "full"
            lines.append(
                f"pruning: auto -> {decision} "
                f"(est. join work {advice.estimated_join_work:.0f} vs "
                f"simulation {advice.estimated_simulation_work:.0f})"
            )
        else:
            lines.append(f"pruning: {mode}")
        lines.append(self._engine().explain(query))
        return "\n".join(lines)

    def benchmark(self, query, name: str = "query"):
        """Run the paper's full per-query experiment (full vs pruned
        evaluation, Tables 3-5); returns a
        :class:`~repro.pipeline.PipelineReport`."""
        self._require_local("benchmark")
        with self.profile.kernel_context(), \
                capture_events(self._degradations):
            report = self._pipeline_for().run(query, name=name)
        return report

    # -- introspection ----------------------------------------------------

    @property
    def n_triples(self) -> int:
        return self.backend.n_triples

    @property
    def epoch(self) -> Optional[int]:
        """The backend's mutation epoch (None on read-only backends).
        Bumps once per :meth:`add`/:meth:`retract` batch that changed
        anything."""
        return getattr(self.backend, "epoch", None)

    @property
    def n_nodes(self) -> int:
        return self.backend.n_nodes

    @property
    def labels(self) -> Set[str]:
        return self.backend.labels

    def triples(self) -> Iterator[NameTriple]:
        return self.backend.triples()

    def stats(self) -> DatabaseStats:
        return DatabaseStats(
            backend=self.backend.kind,
            n_triples=self.backend.n_triples,
            n_nodes=self.backend.n_nodes,
            n_labels=len(self.backend.labels),
            profile=self.profile,
            path=getattr(self.backend, "path", None),
            residency=self.backend.residency(),
            degradations=tuple(self._degradations),
            metrics=registry().snapshot(),
        )

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (and evict a cached snapshot
        backend from the open-cache)."""
        if self._cache_key is not None:
            with _OPEN_CACHE_LOCK:
                _OPEN_CACHE.pop(self._cache_key, None)
            self._cache_key = None
        self.backend.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Database(backend={self.backend.kind}, "
            f"triples={self.backend.n_triples}, "
            f"engine={self.profile.engine!r}, "
            f"pruning={self.profile.pruning!r})"
        )
