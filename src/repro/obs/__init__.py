"""Observability: query-lifecycle tracing, metrics, and profiling.

Zero-dependency (stdlib only) window into the engine:

* **Tracing** (:mod:`repro.obs.trace`) — a :class:`Tracer` producing
  nested, timestamped spans for every stage of a query's life
  (``parse``, ``advise``, ``prune`` per union branch, ``solve`` per
  segment with work counters attached, ``join``, ``promotion`` /
  ``retry``, ``checkpoint`` / ``resume``, ``degrade``),
  exportable as one-span-per-line JSON with OTel-compatible field
  names.  The module-level :data:`NULL_TRACER` is active by default;
  every hot-path hook is an inline ``if tracer.enabled`` guard, so the
  disabled path costs one attribute read (the end-to-end benchmark
  times the untraced path and reports tracing's cost as
  ``obs.trace_on_overhead_frac``).

* **Metrics** (:mod:`repro.obs.metrics`) — a process-wide
  :class:`MetricsRegistry` of counters and bounded histograms (query
  latency, solver rounds, promotions, retries,
  degradations, continuation resumes), snapshotable from
  ``Database.stats()`` and ``repro db info --json``.

* **Profiling** (:mod:`repro.obs.render`) — ``EXPLAIN ANALYZE``-style
  rendering of a finished trace: per-span self/total time, attached
  counters, and percent of wall clock (``repro db query --profile``).

* **Logging** (:mod:`repro.obs.logs`) — the ``logging.getLogger
  ("repro.*")`` hierarchy every engine diagnostic routes through,
  configured once from the ``REPRO_LOG`` environment variable.
"""

from repro.obs.logs import configure_from_env, get_logger
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.render import render_profile, trace_coverage, trace_summary
from repro.obs.trace import (
    NULL_TRACER,
    Span,
    Tracer,
    activate,
    current_tracer,
)

__all__ = [
    "Tracer",
    "Span",
    "NULL_TRACER",
    "activate",
    "current_tracer",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "registry",
    "render_profile",
    "trace_coverage",
    "trace_summary",
    "get_logger",
    "configure_from_env",
]
