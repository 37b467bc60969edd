"""Integration tests for the `repro db` snapshot-store subcommands."""

import io
import json

import pytest

from repro.cli import main
from repro.graph import example_movie_database
from repro.graph.io import save_ntriples


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def movie_nt(tmp_path):
    path = tmp_path / "movies.nt"
    save_ntriples(example_movie_database(), path)
    return str(path)


@pytest.fixture
def movie_snap(movie_nt, tmp_path):
    path = tmp_path / "movies.snap"
    code, _ = run_cli(["db", "build", movie_nt, "-o", str(path)])
    assert code == 0
    return str(path)


class TestDbBuild:
    def test_build_reports_counts(self, movie_nt, tmp_path):
        out_path = tmp_path / "m.snap"
        code, output = run_cli(["db", "build", movie_nt, "-o", str(out_path)])
        assert code == 0
        assert out_path.exists()
        assert "20 triples" in output
        assert "8 predicates" in output

    def test_build_missing_input(self, tmp_path):
        code, _ = run_cli([
            "db", "build", str(tmp_path / "nope.nt"),
            "-o", str(tmp_path / "out.snap"),
        ])
        assert code == 2


class TestDbInfo:
    def test_info_table(self, movie_snap):
        code, output = run_cli(["db", "info", movie_snap])
        assert code == 0
        assert "20 triples" in output
        assert "directed" in output
        assert "Edges" in output

    def test_info_json(self, movie_snap):
        code, output = run_cli(["db", "info", movie_snap, "--json"])
        assert code == 0
        doc = json.loads(output)
        assert doc["n_triples"] == 20
        assert doc["version"] == 4
        assert sum(i["n_edges"] for i in doc["labels"]) == 20
        assert {i["label"] for i in doc["labels"]} >= {"directed", "genre"}

    def test_info_on_garbage_errors(self, tmp_path):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"x" * 200)
        code, _ = run_cli(["db", "info", str(bad)])
        assert code == 1


class TestDbQuery:
    X1 = ("SELECT * WHERE { ?director directed ?movie . "
          "?director worked_with ?coworker . }")

    def test_query_matches_text_path(self, movie_nt, movie_snap):
        code_text, out_text = run_cli(["query", movie_nt, self.X1])
        code_snap, out_snap = run_cli(["db", "query", movie_snap, self.X1])
        assert code_text == code_snap == 0
        assert "2 solutions" in out_text
        assert "2 solutions" in out_snap
        assert "B. De Palma" in out_snap

    def test_query_reports_residency(self, movie_snap):
        code, output = run_cli(["db", "query", movie_snap, self.X1])
        assert code == 0
        assert "residency:" in output
        assert "on disk" in output

    def test_query_with_pruning(self, movie_snap):
        code, output = run_cli([
            "db", "query", movie_snap, self.X1, "--prune",
        ])
        assert code == 0
        assert "pruning: 20 -> 4 triples" in output
        assert "results equal: True" in output

    def test_query_cold_snapshot_promotes(self, movie_nt, tmp_path):
        snap = tmp_path / "cold.snap"
        code, _ = run_cli(["db", "build", movie_nt, "-o", str(snap)])
        assert code == 0
        # --prune routes through the SOI solver, which touches (and
        # promotes) exactly the two query labels; the engine-only path
        # leaves every label cold.
        code, output = run_cli(["db", "query", str(snap), self.X1])
        assert code == 0
        assert "0 promoted" in output
        code, output = run_cli([
            "db", "query", str(snap), self.X1, "--prune",
        ])
        assert code == 0
        assert "2 solutions" in output
        assert "2 promoted" in output

    def test_query_mode_pruned(self, movie_snap):
        code, output = run_cli([
            "db", "query", movie_snap, self.X1, "--mode", "pruned",
        ])
        assert code == 0
        assert "pruning: 20 -> 4 triples" in output
        assert "2 solutions" in output
        assert "residency:" in output

    def test_query_mode_auto(self, movie_snap):
        code, output = run_cli([
            "db", "query", movie_snap, self.X1, "--mode", "auto",
        ])
        assert code == 0
        assert "mode: auto ->" in output
        assert "2 solutions" in output

    def test_repeat_queries_share_cached_session(self, movie_snap):
        from repro.api.database import _OPEN_CACHE, clear_open_cache

        clear_open_cache()
        code, _ = run_cli(["db", "query", movie_snap, self.X1])
        assert code == 0
        assert len(_OPEN_CACHE) == 1
        [backend] = _OPEN_CACHE.values()
        code, _ = run_cli(["db", "query", movie_snap, self.X1])
        assert code == 0
        assert len(_OPEN_CACHE) == 1
        assert next(iter(_OPEN_CACHE.values())) is backend
        clear_open_cache()

    def test_query_kernel_flag(self, movie_snap):
        code, output = run_cli([
            "db", "query", movie_snap, self.X1, "--kernel", "reference",
            "--mode", "pruned",
        ])
        assert code == 0
        assert "2 solutions" in output

    def test_query_missing_snapshot(self, tmp_path):
        code, _ = run_cli([
            "db", "query", str(tmp_path / "nope.snap"), self.X1,
        ])
        assert code == 1

    def test_bad_query_reports_error(self, movie_snap):
        code, _ = run_cli(["db", "query", movie_snap, "SELECT * WHERE {"])
        assert code == 1
