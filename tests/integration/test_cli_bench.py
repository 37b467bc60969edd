"""CLI `bench` command wiring (runners stubbed for speed)."""

import io

import pytest

import repro.bench as bench_module
from repro.bench import HypothesisRow, IterationRow, Table2Row
from repro.cli import main
from repro.pipeline import PipelineReport


@pytest.fixture(autouse=True)
def stub_runners(monkeypatch):
    rows2 = [Table2Row("B0", 0.001, 0.01, 10.0, True)]
    report = PipelineReport(name="B0")
    report.t_simulation = 0.001
    report.t_db_full = 0.01
    report.t_db_pruned = 0.002
    monkeypatch.setattr(bench_module, "run_table2", lambda: rows2)
    monkeypatch.setattr(bench_module, "run_table3", lambda: [report])
    monkeypatch.setattr(
        bench_module, "run_engine_table", lambda profile: [report]
    )
    monkeypatch.setattr(
        bench_module, "run_iteration_study",
        lambda: [IterationRow("L0", 19, 100, 90, 0.05)],
    )
    monkeypatch.setattr(
        bench_module, "run_hhk_hypothesis",
        lambda: [HypothesisRow("B0", 0.05, 0.02, 2.5, True)],
    )


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("table,marker", [
    ("table2", "t_SPARQLSIM"),
    ("table3", "Tripl.aft.Pruning"),
    ("table4", "rdfox-like"),
    ("table5", "virtuoso-like"),
    ("iterations", "rounds"),
    ("hypothesis", "t_HHK"),
])
def test_bench_command_renders_table(table, marker):
    code, output = run_cli(["bench", table])
    assert code == 0
    assert marker in output
