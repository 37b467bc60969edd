"""Execution configuration for a :class:`~repro.api.database.Database`.

Before the façade, running a query meant scattering configuration
across a process-wide kernel switch, a positional engine-profile
string, ``SolverOptions`` kwargs, and the choice of
constructor (pruned pipeline vs bare engine).  :class:`ExecutionProfile`
collects all of it in one immutable value object that travels with the
session.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.bitvec.kernel import KERNELS, active_kernel, use_kernel
from repro.core.checkpoint import ExecutionLimits
from repro.core.solver import SolverOptions
from repro.errors import ReproError
from repro.store.engine import PROFILES


def _default_solver_options() -> SolverOptions:
    # Façade sessions degrade kernel faults (batched → packed →
    # reference) instead of failing the query; the core default stays
    # off so kernel-equivalence tests see real failures.
    return SolverOptions(degrade_on_fault=True)

#: Query execution modes (``ExecutionProfile.pruning``).
PRUNING_MODES = ("pruned", "full", "auto")


@dataclass(frozen=True)
class ExecutionProfile:
    """How a session executes queries.

    * ``engine`` — join-engine profile (``rdfox-like`` materializes,
      ``virtuoso-like`` propagates bindings), as in Tables 4/5;
    * ``pruning`` — whether :meth:`Database.query` prunes via dual
      simulation first: ``"pruned"`` always, ``"full"`` never,
      ``"auto"`` per query on the statistics advisor's verdict
      (the paper's Sect. 5.3 guideline);
    * ``kernel`` — bit-matrix product kernel: ``packed`` (per-matrix
      vectorized products), ``batched`` (whole solver rounds as one
      gather+reduce over the multi-label
      :class:`~repro.bitvec.kernel.BatchedBlockSet`), or
      ``reference`` (the seed per-row loops, kept for ablation);
      ``None`` defers to the process default (``packed`` unless
      :func:`~repro.bitvec.kernel.set_kernel` changed it);
    * ``solver`` — SOI fixpoint strategy knobs (Sect. 3.3);
    * ``time_quantum_ms`` — preemptable execution: the dual-simulation
      stage of :meth:`Database.query` suspends after this much wall
      time and returns a partial :class:`~repro.api.result.ResultSet`
      carrying a continuation token (``0`` means single-step — exactly
      one solver evaluation per call).  Resume with
      :meth:`Database.resume`; the stitched-together run is
      bit-identical to an uninterrupted one.
    * ``deadline_ms`` — hard wall-clock bound on the dual-simulation
      stage of ``query``/``ask``/``simulate``; exceeding it raises
      :class:`~repro.errors.DeadlineExceededError`.
    * ``trace`` — collect a query-lifecycle trace for every query run
      under this profile: each :meth:`Database.query` activates a
      fresh :class:`~repro.obs.trace.Tracer` and attaches it to the
      returned :class:`~repro.api.result.ResultSet` as ``.trace``
      (render with :func:`repro.obs.render_profile`, export with
      ``trace.write_jsonl``).  Off by default — the disabled path is a
      single module-global read per hook site.
    * ``incremental`` — cache each query's dual-simulation fixpoint
      on writable (overlay) sessions: a repeated query reuses it
      while no label the query reads has changed, and re-solves cold
      otherwise (:mod:`repro.core.incremental`).  Ignored on
      read-only backends; on by default.
    """

    engine: str = "virtuoso-like"
    pruning: str = "auto"
    kernel: Optional[str] = None
    solver: SolverOptions = field(default_factory=_default_solver_options)
    time_quantum_ms: Optional[float] = None
    deadline_ms: Optional[float] = None
    trace: bool = False
    incremental: bool = True

    def __post_init__(self):
        if self.engine not in PROFILES:
            raise ReproError(
                f"unknown engine profile {self.engine!r}; "
                f"choose from {sorted(PROFILES)}"
            )
        if self.pruning not in PRUNING_MODES:
            raise ReproError(
                f"unknown pruning mode {self.pruning!r}; "
                f"choose from {PRUNING_MODES}"
            )
        if self.kernel is not None and self.kernel not in KERNELS:
            raise ReproError(
                f"unknown kernel {self.kernel!r}; choose from {KERNELS}"
            )
        if self.time_quantum_ms is not None and self.time_quantum_ms < 0:
            raise ReproError(
                f"time_quantum_ms must be >= 0, got {self.time_quantum_ms}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ReproError(
                f"deadline_ms must be > 0, got {self.deadline_ms}"
            )

    def solver_options(self) -> SolverOptions:
        """The solver options queries run with: ``self.solver``."""
        return self.solver

    @classmethod
    def coerce(
        cls, profile: Union["ExecutionProfile", str, None]
    ) -> "ExecutionProfile":
        """Normalize the ``profile=`` argument of the façade.

        ``None`` means defaults; a string names an engine profile (the
        most common single override); an :class:`ExecutionProfile`
        passes through.
        """
        if profile is None:
            return cls()
        if isinstance(profile, ExecutionProfile):
            return profile
        if isinstance(profile, str):
            return cls(engine=profile)
        raise ReproError(
            f"cannot build an ExecutionProfile from {profile!r}"
        )

    def replace(self, **changes) -> "ExecutionProfile":
        """A copy with the given fields changed."""
        import dataclasses

        return dataclasses.replace(self, **changes)

    def execution_limits(
        self, include_quantum: bool = True
    ) -> Optional[ExecutionLimits]:
        """This profile's limits as solver-level
        :class:`~repro.core.checkpoint.ExecutionLimits` (or None when
        unbounded).  ``include_quantum=False`` keeps only the deadline
        — operations without a continuation surface (``ask``,
        ``simulate``) are deadline-bounded but never suspend.
        """
        quantum = self.time_quantum_ms if include_quantum else None
        if quantum is None and self.deadline_ms is None:
            return None
        return ExecutionLimits(
            quantum_ms=quantum, deadline_ms=self.deadline_ms
        )

    def resolved_kernel(self) -> str:
        """The kernel queries will actually run on.

        Explicit ``kernel`` wins; otherwise the process-active kernel.
        """
        if self.kernel is not None:
            return self.kernel
        return active_kernel()

    @contextlib.contextmanager
    def kernel_context(self) -> Iterator[str]:
        """Activate this profile's kernel for the duration of a query.

        When no kernel is pinned, the process-level selection (set via
        :func:`repro.bitvec.kernel.set_kernel`/``use_kernel``) is left
        untouched.
        """
        resolved = self.resolved_kernel()
        if resolved == active_kernel():
            yield resolved
        else:
            with use_kernel(resolved) as name:
                yield name
