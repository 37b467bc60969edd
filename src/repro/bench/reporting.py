"""Plain-text table rendering for the benchmark harness.

Renders the rows produced by :mod:`repro.bench.runner` in the layout
of the corresponding paper tables, so bench output can be compared to
the paper side by side (shape, not absolute numbers).
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ReproError

from repro.bench.runner import (
    HypothesisRow,
    IterationRow,
    KernelBenchRow,
    Table2Row,
)
from repro.pipeline.pruned_query import PipelineReport


def _fmt_time(seconds: float) -> str:
    return f"{seconds:.5f}"


def render_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    rows = [list(r) for r in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def render_table2(rows: List[Table2Row]) -> str:
    """Table 2: t_SPARQLSIM vs t_MA-ET-AL per query."""
    return render_table(
        ["Query", "t_SPARQLSIM", "t_MA_ET_AL", "speedup", "equal"],
        (
            [
                r.query,
                _fmt_time(r.t_sparqlsim),
                _fmt_time(r.t_ma),
                f"{r.speedup:.1f}x",
                "yes" if r.sim_equal else "NO",
            ]
            for r in rows
        ),
    )


def render_table3(rows: List[PipelineReport]) -> str:
    """Table 3: result sizes, required triples, runtimes, pruning."""
    return render_table(
        [
            "Query", "Result", "Req.Triples", "t_SPARQLSIM",
            "Tripl.aft.Pruning", "DB.Triples", "Pruned%",
        ],
        (
            [
                r.name,
                str(r.result_count),
                str(r.required_triples),
                _fmt_time(r.t_simulation),
                str(r.triples_after_pruning),
                str(r.triples_total),
                f"{100 * r.prune_ratio:.1f}",
            ]
            for r in rows
        ),
    )


def render_engine_table(rows: List[PipelineReport], profile: str) -> str:
    """Tables 4/5: t_DB vs t_DB^pruned vs t_DB^pruned + t_SPARQLSIM."""
    return (
        f"engine profile: {profile}\n"
        + render_table(
            ["Query", "t_DB", "t_DB_pruned", "t_pruned+t_SIM", "equal"],
            (
                [
                    r.name,
                    _fmt_time(r.t_db_full),
                    _fmt_time(r.t_db_pruned),
                    _fmt_time(r.t_pruned_plus_sim),
                    "yes" if r.results_equal else "NO",
                ]
                for r in rows
            ),
        )
    )


def render_iterations(rows: List[IterationRow]) -> str:
    """Fig. 6 / Sect. 5.3: fixpoint iteration behaviour."""
    return render_table(
        ["Query", "rounds", "evaluations", "updates", "t_SPARQLSIM"],
        (
            [
                r.query,
                str(r.rounds),
                str(r.evaluations),
                str(r.updates),
                _fmt_time(r.t_sparqlsim),
            ]
            for r in rows
        ),
    )


def _kernel_pairs(rows: List[KernelBenchRow]) -> Dict[str, Dict[str, KernelBenchRow]]:
    """Group kernel-bench rows as query -> kernel -> row."""
    pairs: Dict[str, Dict[str, KernelBenchRow]] = {}
    for row in rows:
        pairs.setdefault(row.query, {})[row.kernel] = row
    return pairs


def _kernels_present(
    pairs: Dict[str, Dict[str, KernelBenchRow]]
) -> List[str]:
    """Kernels measured by at least one query, in KERNELS order."""
    from repro.bitvec import KERNELS

    seen = {kernel for by_kernel in pairs.values() for kernel in by_kernel}
    ordered = [kernel for kernel in KERNELS if kernel in seen]
    return ordered + sorted(seen.difference(KERNELS))


def _geomean(values: List[float]) -> float:
    if not values:
        return 1.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def render_kernel_bench(rows: List[KernelBenchRow]) -> str:
    """Per-kernel solver times per query, with speedups vs reference.

    Renders whichever kernels the rows cover (old two-kernel runs and
    the full packed/batched/reference matrix alike); queries missing
    one of those kernels are skipped, as in the summary.
    """
    pairs = _kernel_pairs(rows)
    kernels = _kernels_present(pairs)
    fast = [kernel for kernel in kernels if kernel != "reference"]
    body = []
    for query, by_kernel in pairs.items():
        if any(kernel not in by_kernel for kernel in kernels):
            continue
        reference = by_kernel.get("reference")
        first = by_kernel[kernels[0]]
        cells = [query, first.dataset]
        cells.extend(
            _fmt_time(by_kernel[kernel].t_solve) for kernel in kernels
        )
        if reference is not None:
            for kernel in fast:
                t = by_kernel[kernel].t_solve
                speedup = reference.t_solve / t if t > 0 else float("inf")
                cells.append(f"{speedup:.1f}x")
        masses = {by_kernel[kernel].total_bits for kernel in kernels}
        cells.append("yes" if len(masses) == 1 else "NO")
        body.append(cells)
    headers = ["Query", "Dataset"]
    headers.extend(f"t_{kernel}" for kernel in kernels)
    if "reference" in kernels:
        headers.extend(f"ref/{kernel}" for kernel in fast)
    headers.append("fixpoint=")
    return render_table(headers, body)


def kernel_bench_summary(rows: List[KernelBenchRow]) -> Dict:
    """Aggregate statistics of one kernel-ablation run.

    Only queries measured on *every* present kernel count toward
    ``n_queries`` and ``fixpoints_identical``; queries missing a
    kernel are reported separately rather than silently passing.  The
    headline keys (``geomean_speedup``, ``n_speedup_ge_3x``, ...)
    keep their PR-1 meaning — reference vs packed — and the
    ``batched`` section summarizes the batched engine against both,
    overall and on the small B-query set (``dataset == "dbpedia"``).
    """
    pairs = _kernel_pairs(rows)
    kernels = _kernels_present(pairs)
    speedups: List[float] = []
    batched_vs_packed: List[float] = []
    batched_vs_packed_b: List[float] = []
    batched_vs_reference: List[float] = []
    identical = True
    n_paired = 0
    unpaired: List[str] = []
    for query, by_kernel in pairs.items():
        if any(kernel not in by_kernel for kernel in kernels):
            unpaired.append(query)
            continue
        n_paired += 1
        packed = by_kernel.get("packed")
        reference = by_kernel.get("reference")
        batched = by_kernel.get("batched")
        if packed and reference and packed.t_solve > 0:
            speedups.append(reference.t_solve / packed.t_solve)
        if batched and batched.t_solve > 0:
            if packed:
                ratio = packed.t_solve / batched.t_solve
                batched_vs_packed.append(ratio)
                if batched.dataset == "dbpedia":
                    batched_vs_packed_b.append(ratio)
            if reference:
                batched_vs_reference.append(
                    reference.t_solve / batched.t_solve
                )
        masses = {by_kernel[kernel].total_bits for kernel in kernels}
        identical = identical and len(masses) == 1
    summary = {
        "n_queries": n_paired,
        "kernels": kernels,
        "unpaired_queries": sorted(unpaired),
        "n_speedup_ge_3x": sum(1 for s in speedups if s >= 3.0),
        "min_speedup": min(speedups) if speedups else None,
        "max_speedup": max(speedups) if speedups else None,
        "geomean_speedup": _geomean(speedups),
        "fixpoints_identical": identical,
    }
    if batched_vs_packed:
        summary["batched"] = {
            "geomean_vs_packed": _geomean(batched_vs_packed),
            # None, not a neutral 1.0, when the run measured no
            # B-queries — "at parity" and "not measured" must not
            # read the same.
            "geomean_vs_packed_b_queries": (
                _geomean(batched_vs_packed_b)
                if batched_vs_packed_b else None
            ),
            "geomean_vs_reference": (
                _geomean(batched_vs_reference)
                if batched_vs_reference else None
            ),
            "n_faster_than_packed": sum(
                1 for r in batched_vs_packed if r > 1.0
            ),
        }
    return summary


def write_bench_json(
    path: str | Path,
    rows: List[KernelBenchRow],
    lubm_universities: int,
    dbpedia_scale: int,
) -> Dict:
    """Write the machine-readable perf-trajectory record.

    Schema ``repro-bench/v1``: one record per (query, kernel) with
    wall time, solver work counters, bits removed, and the fixpoint
    mass, plus an aggregate summary — so future PRs can diff their
    numbers against this baseline file.
    """
    document = {
        "schema": "repro-bench/v1",
        "workloads": {
            "lubm_universities": lubm_universities,
            "dbpedia_scale": dbpedia_scale,
        },
        "python": platform.python_version(),
        "benches": [
            {
                "query": row.query,
                "dataset": row.dataset,
                "kernel": row.kernel,
                "t_solve": row.t_solve,
                "rounds": row.rounds,
                "evaluations": row.evaluations,
                "updates": row.updates,
                "bits_removed": row.bits_removed,
                "total_bits": row.total_bits,
            }
            for row in rows
        ],
        "summary": kernel_bench_summary(rows),
    }
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    return document


#: A run is a regression when it is this much slower than baseline.
REGRESSION_THRESHOLD = 0.20

#: Per-query gating floor.  Best-of-repeats minima of sub-millisecond
#: solves carry tens of percent of scheduler/allocator noise across
#: *invocations* even after interleaved repeats (the same binary
#: measures 0.85ms and 1.2ms for the same query in back-to-back
#: runs), so rows whose baseline sits below this are not gated at the
#: 20% bar one by one: individually they must cross the much wider
#: SMALL_ROW_RATIO, and systematically they are caught by the
#: kernel-geomean aggregate gate (independent per-query noise cancels
#: in a geomean over the suite; a code slowdown does not).
MIN_GATED_BASELINE_SECONDS = 1e-3

#: A sub-millisecond row is individually flagged only at this
#: current/baseline ratio or worse (2.0 = twice as slow) — above the
#: observed cross-invocation noise ceiling (~1.6x), far below any
#: genuine disaster (a 10x pathological path).
SMALL_ROW_RATIO = 2.0

#: Bounds on the machine-drift correction inferred from the
#: reference-kernel rows.  Drift outside this window is clamped, so a
#: genuine global slowdown cannot fully normalize itself away.  Kept
#: deliberately tight: the reference kernel shares substrate (Bitset,
#: solver loop, orderings) with the kernels under test, so a uniform
#: regression in that shared code looks exactly like drift — the
#: clamp caps how much of one the gate can absorb, and the render
#: surfaces the factor so an unusually large one reads as a signal,
#: not bookkeeping.
DRIFT_CLAMP = 1.3

#: Reference pairs needed before drift correction kicks in.
_MIN_DRIFT_SAMPLES = 3

#: How far a kernel's own drift estimate may deviate from the
#: reference-kernel drift before the excess counts as regression.
#: Drift is *not* uniform across kernels: the reference kernel's long
#: per-row loops track CPU/cache throughput, while the vectorized
#: kernels' sub-millisecond solves are dominated by fixed interpreter
#: overhead that barely moves between hosts — so a host on which
#: reference runs 0.87x of baseline can reproduce the packed times
#: exactly, and normalizing packed by the reference drift would
#: manufacture a +15% "regression" across the board.  Estimating each
#: kernel's drift from its own rows removes that bias; clamping the
#: estimate to within this factor of the reference drift bounds how
#: much genuine kernel-wide slowdown the estimate can absorb
#: (beyond it, the per-query ratios and the aggregate geomean gate
#: both start firing).
KERNEL_DRIFT_CLAMP = 1.15


@dataclass
class BenchComparison:
    """One (query, kernel) of the current run vs a baseline file.

    ``drift`` is the run-wide machine-speed factor inferred by
    :func:`compare_with_baseline` (1.0 when uncorrected); the
    regression verdict uses the drift-normalized ratio so the gate
    measures the *code*, not the host the baseline happened to be
    recorded on.
    """

    query: str
    kernel: str
    t_baseline: float
    t_current: float
    fixpoint_equal: bool  # total_bits agrees with the baseline record
    drift: float = 1.0

    @property
    def raw_ratio(self) -> float:
        """current / baseline before drift correction."""
        if self.t_baseline <= 0:
            return float("inf") if self.t_current > 0 else 1.0
        return self.t_current / self.t_baseline

    @property
    def ratio(self) -> float:
        """current / baseline, drift-normalized: > 1 is slower."""
        return self.raw_ratio / self.drift

    def is_regression(
        self, threshold: float = REGRESSION_THRESHOLD
    ) -> bool:
        if self.ratio <= 1.0 + threshold:
            return False
        if self.t_baseline >= MIN_GATED_BASELINE_SECONDS:
            return True
        # Sub-millisecond minima are noise-bound per query (see
        # MIN_GATED_BASELINE_SECONDS): individually only a disaster
        # trips them; systematic slowdowns are the aggregate gate's
        # job (kernel_aggregate_regressions).
        return self.ratio >= SMALL_ROW_RATIO


def _machine_drift(
    current: Dict[Tuple[str, str], KernelBenchRow],
    previous: Dict[Tuple[str, str], Dict],
) -> float:
    """Host-speed factor between the two runs.

    The reference kernel is the seed's per-row implementation and the
    least likely code to change between runs, so the geomean of its
    current/baseline time ratios mostly measures how much faster or
    slower *this machine right now* is, not the code under test.
    "Mostly": it still shares Bitset and the solver loop with the
    vectorized kernels, so a uniform regression in that substrate is
    indistinguishable from drift — which is why the estimate is
    clamped to ``[1/DRIFT_CLAMP, DRIFT_CLAMP]`` (bounding how much
    real slowdown can be absorbed) and reported in the rendered
    summary rather than silently applied.
    """
    ratios = []
    for (query, kernel), row in current.items():
        if kernel != "reference":
            continue
        base = previous.get((query, kernel))
        if base and float(base["t_solve"]) > 0 and row.t_solve > 0:
            ratios.append(row.t_solve / float(base["t_solve"]))
    if len(ratios) < _MIN_DRIFT_SAMPLES:
        return 1.0
    return min(max(_geomean(ratios), 1.0 / DRIFT_CLAMP), DRIFT_CLAMP)


def _kernel_drifts(
    current: Dict[Tuple[str, str], KernelBenchRow],
    previous: Dict[Tuple[str, str], Dict],
    reference_drift: float,
) -> Dict[str, float]:
    """Per-kernel drift, anchored to the reference-kernel estimate.

    Each kernel's geomean of current/baseline ratios is its own best
    drift estimate (see :data:`KERNEL_DRIFT_CLAMP` for why drift is
    not uniform across kernels); it is clamped to within
    ``KERNEL_DRIFT_CLAMP`` of ``reference_drift`` — so non-uniform
    host effects are normalized out, while a genuine kernel-wide
    slowdown beyond that window survives into the ratios — and then
    to the global ``DRIFT_CLAMP`` bounds.  Kernels with too few pairs
    fall back to the reference estimate.
    """
    ratios: Dict[str, List[float]] = {}
    for (query, kernel), row in current.items():
        base = previous.get((query, kernel))
        if base and float(base["t_solve"]) > 0 and row.t_solve > 0:
            ratios.setdefault(kernel, []).append(
                row.t_solve / float(base["t_solve"])
            )
    drifts: Dict[str, float] = {}
    for kernel, samples in ratios.items():
        if len(samples) < _MIN_DRIFT_SAMPLES:
            drifts[kernel] = reference_drift
            continue
        own = _geomean(samples)
        own = min(
            max(own, reference_drift / KERNEL_DRIFT_CLAMP),
            reference_drift * KERNEL_DRIFT_CLAMP,
        )
        drifts[kernel] = min(max(own, 1.0 / DRIFT_CLAMP), DRIFT_CLAMP)
    return drifts


def kernel_aggregate_regressions(
    comparisons: List[BenchComparison],
    threshold: float = REGRESSION_THRESHOLD,
) -> Dict[str, float]:
    """Kernels whose drift-normalized geomean ratio blows the bar.

    The systematic companion to the per-query verdicts: independent
    per-query timing noise cancels in a geomean over the suite, so a
    kernel whose *geomean* is still ``threshold`` slower than
    baseline after drift normalization has a real, code-level
    slowdown — even when every individual row sits under the sub-ms
    gating floor.  (Because per-kernel drift is clamped to the
    reference estimate, a kernel-wide slowdown cannot normalize
    itself away; it reappears here.)
    """
    grouped: Dict[str, List[float]] = {}
    for c in comparisons:
        if 0 < c.raw_ratio != float("inf"):
            grouped.setdefault(c.kernel, []).append(c.ratio)
    flagged: Dict[str, float] = {}
    for kernel, ratios in sorted(grouped.items()):
        geomean = _geomean(ratios)
        if geomean > 1.0 + threshold:
            flagged[kernel] = geomean
    return flagged


def compare_with_baseline(
    rows: List[KernelBenchRow], baseline: Dict
) -> Tuple[List[BenchComparison], List[str]]:
    """Diff a fresh kernel-bench run against a ``repro-bench/v1`` doc.

    Returns the per-(query, kernel) comparisons plus the labels
    (``query/kernel``) present in only one of the two runs, tagged
    with which side they came from.  Baseline-only labels are the
    dangerous direction — a renamed or dropped query could otherwise
    mask a regression — and callers gate on them (see ``cmd_bench``).

    Comparisons are normalized by per-kernel machine-drift factors
    anchored to the reference-kernel estimate (see
    :func:`_machine_drift` and :func:`_kernel_drifts`), so a baseline
    recorded on a faster or quieter host — or one whose speedup hit
    the kernels non-uniformly — does not flag every query on a CI
    runner as regressed.  Callers should additionally gate on
    :func:`kernel_aggregate_regressions`, which catches systematic
    slowdowns in kernels whose rows are individually below the sub-ms
    per-query gating floor.
    """
    schema = baseline.get("schema")
    if schema != "repro-bench/v1":
        raise ReproError(
            f"baseline schema {schema!r} is not repro-bench/v1"
        )
    previous = {
        (b["query"], b["kernel"]): b for b in baseline.get("benches", [])
    }
    current = {(r.query, r.kernel): r for r in rows}
    drift = _machine_drift(current, previous)
    drifts = _kernel_drifts(current, previous, drift)
    comparisons: List[BenchComparison] = []
    for key in sorted(current.keys() & previous.keys()):
        row, base = current[key], previous[key]
        comparisons.append(
            BenchComparison(
                query=row.query,
                kernel=row.kernel,
                t_baseline=float(base["t_solve"]),
                t_current=row.t_solve,
                fixpoint_equal=(row.total_bits == base.get("total_bits")),
                drift=drifts.get(row.kernel, drift),
            )
        )
    unmatched = sorted(
        [f"{q}/{k} (baseline only)"
         for q, k in previous.keys() - current.keys()]
        + [f"{q}/{k} (current only)"
           for q, k in current.keys() - previous.keys()]
    )
    return comparisons, unmatched


def render_bench_compare(
    comparisons: List[BenchComparison],
    unmatched: List[str],
    threshold: float = REGRESSION_THRESHOLD,
) -> str:
    """Per-query delta table against the baseline file."""
    body = []
    for c in comparisons:
        if c.is_regression(threshold):
            verdict = "REGRESSION"
        elif c.ratio > 1.0 + threshold:
            # Over the bar but under the sub-ms per-query gating
            # floor: visible, not individually gating (the kernel
            # geomean line below is the gate for these).
            verdict = "slower (sub-ms)"
        elif c.ratio < 1.0 - threshold:
            verdict = "faster"
        else:
            verdict = "ok"
        body.append([
            c.query,
            c.kernel,
            _fmt_time(c.t_baseline),
            _fmt_time(c.t_current),
            f"{c.ratio:.2f}x",
            verdict if c.fixpoint_equal else verdict + " (fixpoint!)",
        ])
    table = render_table(
        ["Query", "Kernel", "t_baseline", "t_current", "cur/base",
         "verdict"],
        body,
    )
    regressions = [c for c in comparisons if c.is_regression(threshold)]
    summary = (
        f"{len(comparisons)} compared, {len(regressions)} regressed "
        f"(> {100 * threshold:.0f}% slower)"
    )
    drifts = {c.kernel: c.drift for c in comparisons}
    if any(d != 1.0 for d in drifts.values()):
        summary += ", machine drift " + " ".join(
            f"{kernel} {d:.2f}x" for kernel, d in sorted(drifts.items())
        ) + " (per-kernel geomean, clamped to the reference estimate, normalized out)"
    aggregate = kernel_aggregate_regressions(comparisons, threshold)
    if aggregate:
        summary += ", kernel geomean REGRESSION: " + ", ".join(
            f"{kernel} {g:.2f}x" for kernel, g in aggregate.items()
        )
    if unmatched:
        summary += f", unmatched: {', '.join(unmatched)}"
    return table + "\n" + summary


def render_hypothesis(rows: List[HypothesisRow]) -> str:
    """Sect. 3.3: naive HHK vs Ma et al. runtimes."""
    return render_table(
        ["Query", "t_MA", "t_HHK", "t_MA/t_HHK", "equal"],
        (
            [
                r.query,
                _fmt_time(r.t_ma),
                _fmt_time(r.t_hhk),
                f"{r.ratio:.2f}",
                "yes" if r.sim_equal else "NO",
            ]
            for r in rows
        ),
    )
