"""Plain-text table rendering for the benchmark harness.

Renders the rows produced by :mod:`repro.bench.runner` in the layout
of the corresponding paper tables, so bench output can be compared to
the paper side by side (shape, not absolute numbers).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.bench.runner import HypothesisRow, IterationRow, Table2Row
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
