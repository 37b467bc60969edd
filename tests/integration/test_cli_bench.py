"""CLI `bench` command wiring (runners stubbed for speed)."""

import io
import json

import pytest

import repro.bench as bench_module
from repro.bench import (
    HypothesisRow,
    IterationRow,
    StorageBenchResult,
    StorageQueryRow,
    Table2Row,
)
from repro.bench.runner import KernelBenchRow
from repro.cli import EXIT_REGRESSION, main
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


def test_bench_flag_gating():
    code, _ = run_cli(["bench", "table2", "--json", "x.json"])
    assert code == 2
    code, _ = run_cli(["bench", "storage", "--repeats", "2"])
    assert code == 2
    code, _ = run_cli(["bench", "storage", "--compare", "x.json"])
    assert code == 2
    # A single-kernel run cannot be compared against the full-matrix
    # baseline (every other kernel's rows would read as dropped).
    code, _ = run_cli([
        "bench", "kernels", "--kernel", "packed",
        "--compare", "x.json",
    ])
    assert code == 2


def test_bench_kernels_kernel_flag_restricts_run(monkeypatch):
    seen = {}

    def fake_run(repeats, kernels=None):
        seen["kernels"] = kernels
        return [
            KernelBenchRow("L0", "lubm", "packed", 0.01, 2, 10, 5, 50, 100)
        ]

    monkeypatch.setattr(bench_module, "run_kernel_bench", fake_run)
    code, output = run_cli(["bench", "kernels", "--kernel", "packed"])
    assert code == 0
    assert seen["kernels"] == ["packed"]
    # Single-kernel run: no cross-kernel speedup lines to print.
    assert "geomean speedup" not in output
    assert "batched vs packed" not in output


def _kernel_rows(t_packed):
    return [
        KernelBenchRow("L0", "lubm", "packed", t_packed, 2, 10, 5, 50, 100),
        KernelBenchRow("L0", "lubm", "reference", 0.05, 2, 10, 5, 50, 100),
    ]


class TestKernelsCompare:
    def _baseline_file(self, tmp_path, t_packed=0.01):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "schema": "repro-bench/v1",
            "benches": [
                {"query": "L0", "kernel": "packed",
                 "t_solve": t_packed, "total_bits": 100},
                {"query": "L0", "kernel": "reference",
                 "t_solve": 0.05, "total_bits": 100},
            ],
        }))
        return str(path)

    def test_compare_ok_exit_zero(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            bench_module, "run_kernel_bench",
            lambda repeats, kernels=None: _kernel_rows(t_packed=0.01),
        )
        code, output = run_cli([
            "bench", "kernels",
            "--compare", self._baseline_file(tmp_path),
        ])
        assert code == 0
        assert "0 regressed" in output

    def test_compare_regression_exits_nonzero(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            bench_module, "run_kernel_bench",
            # 2x slower than the baseline below
            lambda repeats, kernels=None: _kernel_rows(t_packed=0.02),
        )
        code, output = run_cli([
            "bench", "kernels",
            "--compare", self._baseline_file(tmp_path),
        ])
        assert code == EXIT_REGRESSION
        assert "REGRESSION" in output

    def test_compare_fixpoint_divergence_exits_nonzero(
        self, tmp_path, monkeypatch
    ):
        rows = _kernel_rows(t_packed=0.01)
        rows[0].total_bits = 999  # same speed, different answer mass
        monkeypatch.setattr(
            bench_module, "run_kernel_bench",
            lambda repeats, kernels=None: rows,
        )
        code, output = run_cli([
            "bench", "kernels",
            "--compare", self._baseline_file(tmp_path),
        ])
        assert code == EXIT_REGRESSION
        assert "fixpoint!" in output

    def test_compare_missing_baseline_file(self, tmp_path, monkeypatch):
        def boom(repeats, kernels=None):
            raise AssertionError("bench must not run before validation")

        monkeypatch.setattr(bench_module, "run_kernel_bench", boom)
        code, _ = run_cli([
            "bench", "kernels",
            "--compare", str(tmp_path / "missing.json"),
        ])
        assert code == 2

    def test_compare_invalid_json_fails_before_bench(
        self, tmp_path, monkeypatch
    ):
        def boom(repeats, kernels=None):
            raise AssertionError("bench must not run before validation")

        monkeypatch.setattr(bench_module, "run_kernel_bench", boom)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(["bench", "kernels", "--compare", str(bad)])
        assert code == 2

    def test_compare_wrong_schema_fails_before_bench(
        self, tmp_path, monkeypatch
    ):
        def boom(repeats, kernels=None):
            raise AssertionError("bench must not run before validation")

        monkeypatch.setattr(bench_module, "run_kernel_bench", boom)
        bad = tmp_path / "wrong.json"
        bad.write_text(json.dumps({"schema": "something/v9"}))
        code, _ = run_cli(["bench", "kernels", "--compare", str(bad)])
        assert code == 2

    def test_compare_dropped_query_exits_nonzero(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            bench_module, "run_kernel_bench",
            lambda repeats, kernels=None: _kernel_rows(t_packed=0.01),
        )
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "schema": "repro-bench/v1",
            "benches": [
                {"query": "L0", "kernel": "packed",
                 "t_solve": 0.01, "total_bits": 100},
                {"query": "L0", "kernel": "reference",
                 "t_solve": 0.05, "total_bits": 100},
                {"query": "GONE", "kernel": "packed",
                 "t_solve": 0.01, "total_bits": 100},
            ],
        }))
        code, output = run_cli([
            "bench", "kernels", "--compare", str(path),
        ])
        assert code == EXIT_REGRESSION
        assert "GONE/packed (baseline only)" in output


class TestStorageBench:
    def _result(self):
        return StorageBenchResult(
            lubm_universities=1,
            profile="virtuoso-like",
            nt_bytes=1000,
            snapshot_bytes=800,
            t_build_snapshot=0.01,
            t_text_open=0.05,
            t_cold_open_view=0.001,
            t_cold_open_pipeline=0.02,
            queries=[StorageQueryRow("L0", 0.01, 0.02, True, 3)],
            hot_labels=2, cold_labels=10, promotions=6,
            resident_bytes=4000,
        )

    def test_storage_renders_and_writes_json(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            bench_module, "run_storage_bench", lambda: self._result()
        )
        json_path = tmp_path / "storage.json"
        code, output = run_cli([
            "bench", "storage", "--json", str(json_path),
        ])
        assert code == 0
        assert "storage bench" in output
        assert "residency:" in output
        doc = json.loads(json_path.read_text())
        assert doc["schema"] == "repro-storage-bench/v3"
        assert doc["cold_open"]["lazy"] is True
        assert doc["churn"] is None  # stubbed result skipped the churn

    def test_storage_non_lazy_cold_open_fails(self, monkeypatch):
        """A join-index fill (or promotion) before any query ran is
        the full-edge-scan regression the lazy store prevents."""
        result = self._result()
        result.cold_open_join_fills = 5
        monkeypatch.setattr(
            bench_module, "run_storage_bench", lambda: result
        )
        code, _ = run_cli(["bench", "storage"])
        assert code == 1

    def test_storage_answer_mismatch_fails(self, monkeypatch):
        result = self._result()
        result.queries[0].answers_equal = False
        monkeypatch.setattr(
            bench_module, "run_storage_bench", lambda: result
        )
        code, _ = run_cli(["bench", "storage"])
        assert code == 1

    def test_storage_answer_mismatch_fails_with_json(
        self, tmp_path, monkeypatch
    ):
        """The snapshot-roundtrip CI job gates on this exit code; the
        JSON report must still be written so the failure's evidence
        can be uploaded as an artifact."""
        result = self._result()
        result.queries[0].answers_equal = False
        monkeypatch.setattr(
            bench_module, "run_storage_bench", lambda: result
        )
        json_path = tmp_path / "storage.json"
        code, _ = run_cli(["bench", "storage", "--json", str(json_path)])
        assert code == 1
        doc = json.loads(json_path.read_text())
        assert doc["answers_all_equal"] is False
