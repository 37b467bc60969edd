"""``EXPLAIN ANALYZE``-style rendering of a finished trace.

:func:`render_profile` draws the span tree of a
:class:`~repro.obs.trace.Tracer` with per-span total time, self time
(total minus the children's totals), percent of the root's wall clock,
and the attached work counters — what ``repro db query --profile``
prints.  :func:`trace_coverage` computes how much of the root span's
wall time its direct children account for (the accounting-completeness
figure the acceptance gate asserts at >= 95%).
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.trace import Span, Tracer

__all__ = ["render_profile", "trace_coverage", "trace_summary"]

#: Attributes rendered inline after the span name, in this order.
_INLINE_ATTRS = (
    "branch", "label", "mode", "kernel",
    "rounds", "evaluations", "updates", "bits_removed",
    "triples_after", "solutions", "bytes", "attempt",
)


def _by_parent(tracer: Tracer) -> Dict[object, List[Span]]:
    children: Dict[object, List[Span]] = {}
    for span in tracer.spans:
        children.setdefault(span.parent_id, []).append(span)
    return children


def _label(span: Span) -> str:
    attrs = span.attributes
    inline = [
        f"{key}={attrs[key]}" for key in _INLINE_ATTRS if key in attrs
    ]
    extra = [
        f"{key}={value}" for key, value in sorted(attrs.items())
        if key not in _INLINE_ATTRS
    ]
    rendered = " ".join(inline + extra)
    return f"{span.name} [{rendered}]" if rendered else span.name


def render_profile(tracer: Tracer) -> str:
    """The span forest as an ``EXPLAIN ANALYZE``-style tree.

    Each line shows the span (with its attributes), its total wall
    time, its self time, and its share of the root span's wall clock.
    Zero-duration events render without timings.
    """
    children = _by_parent(tracer)
    roots = children.get(None, [])
    lines: List[str] = []

    def total_of(span: Span) -> float:
        return span.duration

    def walk(span: Span, prefix: str, is_last: bool, root_total: float):
        kids = children.get(span.span_id, [])
        connector = "" if prefix == "" and not lines else (
            "└─ " if is_last else "├─ "
        )
        total = total_of(span)
        self_time = total - sum(total_of(k) for k in kids)
        if total == 0.0 and not kids:
            timing = "(event)"
        else:
            share = (
                f"{100.0 * total / root_total:5.1f}%"
                if root_total > 0 else "    -"
            )
            timing = (
                f"total {1000.0 * total:9.3f}ms  "
                f"self {1000.0 * max(self_time, 0.0):9.3f}ms  {share}"
            )
        lines.append(f"{prefix}{connector}{_label(span)}  {timing}")
        child_prefix = prefix + (
            "" if prefix == "" and connector == "" else
            ("   " if is_last else "│  ")
        )
        for index, kid in enumerate(kids):
            walk(kid, child_prefix, index == len(kids) - 1, root_total)

    for root in roots:
        walk(root, "", True, total_of(root))
    return "\n".join(lines)


def trace_coverage(tracer: Tracer) -> float:
    """Fraction of the first root span's wall time accounted for by
    its direct children (1.0 when the root took no measurable time).

    The profiling contract is that the top-level stage spans (parse,
    advise, prune, join, ...) explain where a query's wall clock went;
    this is the number the acceptance gate holds at >= 0.95.
    """
    roots = [s for s in tracer.spans if s.parent_id is None]
    if not roots:
        return 0.0
    root = roots[0]
    total = root.duration
    if total <= 0.0:
        return 1.0
    covered = sum(
        span.duration for span in tracer.spans
        if span.parent_id == root.span_id
    )
    return min(covered / total, 1.0)


def trace_summary(tracer: Tracer) -> Dict[str, object]:
    """Compact JSON-friendly digest of a trace: per-name span counts
    and total milliseconds, plus root wall time and child coverage
    (the ``--stats-json --profile`` trace block)."""
    by_name: Dict[str, Dict[str, float]] = {}
    for span in tracer.spans:
        entry = by_name.setdefault(
            span.name, {"count": 0, "total_ms": 0.0}
        )
        entry["count"] += 1
        entry["total_ms"] += 1000.0 * span.duration
    roots = [s for s in tracer.spans if s.parent_id is None]
    return {
        "spans": {
            name: {
                "count": int(entry["count"]),
                "total_ms": entry["total_ms"],
            }
            for name, entry in sorted(by_name.items())
        },
        "wall_ms": 1000.0 * sum(root.duration for root in roots),
        "coverage": trace_coverage(tracer),
    }
