"""Integration tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.graph.io import save_ntriples
from repro.graph import example_movie_database


@pytest.fixture
def movie_nt(tmp_path):
    path = tmp_path / "movies.nt"
    save_ntriples(example_movie_database(), path)
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestGenerate:
    def test_generate_lubm(self, tmp_path):
        out_path = tmp_path / "lubm.nt"
        code, output = run_cli([
            "generate", "lubm", "--out", str(out_path),
            "--universities", "2", "--seed", "3",
        ])
        assert code == 0
        assert "wrote" in output
        assert out_path.exists()
        from repro.graph.io import load_ntriples
        db = load_ntriples(out_path)
        assert db.n_triples > 500

    def test_generate_dbpedia(self, tmp_path):
        out_path = tmp_path / "dbp.nt"
        code, output = run_cli([
            "generate", "dbpedia", "--out", str(out_path),
            "--scale", "1", "--padding", "1",
        ])
        assert code == 0
        assert out_path.exists()

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.nt", tmp_path / "b.nt"
        run_cli(["generate", "lubm", "--out", str(a), "--universities", "1"])
        run_cli(["generate", "lubm", "--out", str(b), "--universities", "1"])
        assert a.read_text() == b.read_text()


class TestQuery:
    X1 = ("SELECT * WHERE { ?director directed ?movie . "
          "?director worked_with ?coworker . }")

    def test_plain_query(self, movie_nt):
        code, output = run_cli(["query", movie_nt, self.X1])
        assert code == 0
        assert "2 solutions" in output
        assert "B. De Palma" in output

    def test_pruned_query(self, movie_nt):
        code, output = run_cli(["query", movie_nt, self.X1, "--prune"])
        assert code == 0
        assert "pruning: 20 -> 4 triples" in output
        assert "results equal: True" in output

    def test_engine_flag(self, movie_nt):
        code, output = run_cli([
            "query", movie_nt, self.X1, "--engine", "rdfox-like",
        ])
        assert code == 0
        assert "2 solutions" in output

    def test_limit(self, movie_nt):
        code, output = run_cli([
            "query", movie_nt,
            "SELECT * WHERE { ?d directed ?m . }", "--limit", "1",
        ])
        assert code == 0
        assert "(3 more)" in output

    def test_query_from_file(self, movie_nt, tmp_path):
        rq = tmp_path / "q.rq"
        rq.write_text(self.X1)
        code, output = run_cli(["query", movie_nt, str(rq)])
        assert code == 0
        assert "2 solutions" in output

    def test_missing_data_file(self, tmp_path):
        code, _output = run_cli([
            "query", str(tmp_path / "nope.nt"), self.X1,
        ])
        assert code == 2

    def test_bad_query_reports_error(self, movie_nt):
        code, _output = run_cli(["query", movie_nt, "SELECT * WHERE {"])
        assert code == 1


class TestModeFlag:
    X1 = ("SELECT * WHERE { ?director directed ?movie . "
          "?director worked_with ?coworker . }")

    def test_mode_pruned_reports_and_answers(self, movie_nt):
        code, output = run_cli([
            "query", movie_nt, self.X1, "--mode", "pruned",
        ])
        assert code == 0
        assert "pruning: 20 -> 4 triples" in output
        assert "2 solutions" in output
        assert "B. De Palma" in output

    def test_mode_auto_prints_decision(self, movie_nt):
        code, output = run_cli([
            "query", movie_nt, self.X1, "--mode", "auto",
        ])
        assert code == 0
        assert "mode: auto ->" in output
        assert "2 solutions" in output

    def test_mode_matches_full_answers(self, movie_nt):
        _, full = run_cli(["query", movie_nt, self.X1])
        _, pruned = run_cli([
            "query", movie_nt, self.X1, "--mode", "pruned",
        ])
        full_rows = {ln for ln in full.splitlines() if ln.startswith("  ")}
        pruned_rows = {ln for ln in pruned.splitlines() if ln.startswith("  ")}
        assert full_rows == pruned_rows

    def test_bad_mode_rejected(self, movie_nt):
        with pytest.raises(SystemExit):
            run_cli(["query", movie_nt, self.X1, "--mode", "maybe"])


class TestKernelFlag:
    X1 = ("SELECT * WHERE { ?director directed ?movie . "
          "?director worked_with ?coworker . }")

    def test_query_kernel_reference_same_answers(self, movie_nt):
        code_ref, out_ref = run_cli([
            "query", movie_nt, self.X1, "--kernel", "reference",
        ])
        code_pkd, out_pkd = run_cli([
            "query", movie_nt, self.X1, "--kernel", "packed",
        ])
        assert code_ref == code_pkd == 0
        assert out_ref == out_pkd
        assert "2 solutions" in out_ref

    def test_kernel_restored_after_command(self, movie_nt):
        from repro.bitvec.kernel import active_kernel

        before = active_kernel()
        code, _ = run_cli([
            "query", movie_nt, self.X1, "--kernel", "reference",
        ])
        assert code == 0
        assert active_kernel() == before

    def test_simulate_kernel_flag(self, movie_nt):
        code, output = run_cli([
            "simulate", movie_nt,
            "SELECT * WHERE { ?d directed ?m . }",
            "--kernel", "reference",
        ])
        assert code == 0
        assert "fixpoint:" in output

    def test_bad_kernel_rejected(self, movie_nt):
        with pytest.raises(SystemExit):
            run_cli(["query", movie_nt, self.X1, "--kernel", "cuda"])


class TestSimulate:
    def test_shows_soi_and_candidates(self, movie_nt):
        code, output = run_cli([
            "simulate", movie_nt,
            "SELECT * WHERE { ?d directed ?m . }",
        ])
        assert code == 0
        assert "system of inequalities" in output
        assert "x F[directed]" in output
        assert "fixpoint:" in output
        assert "?d:" in output

    def test_union_branches(self, movie_nt):
        code, output = run_cli([
            "simulate", movie_nt,
            "SELECT * WHERE { { ?m genre Action . } UNION "
            "{ ?m genre Drama . } }",
        ])
        assert code == 0
        assert "union branch 0" in output
        assert "union branch 1" in output

    def test_candidate_limit(self, movie_nt):
        code, output = run_cli([
            "simulate", movie_nt,
            "SELECT * WHERE { ?s ?p ?o . }",
        ])
        # Variable predicates are rejected by the compiler.
        assert code == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            run_cli([])

    @pytest.mark.parametrize("argv", [
        ["table99"],
        ["kernels"],
        ["storage"],
        ["updates"],
        ["table2", "--json", "x"],
    ], ids=["table99", "kernels", "storage", "updates", "json-flag"])
    def test_unknown_bench_table(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["bench", *argv])
        assert excinfo.value.code == 2


class TestAskCommand:
    def test_ask_yes(self, movie_nt):
        code, output = run_cli([
            "ask", movie_nt, "ASK { ?d directed ?m . }",
        ])
        assert code == 0
        assert output.strip() == "yes"

    def test_ask_no_fast_path(self, movie_nt):
        code, output = run_cli([
            "ask", movie_nt, "ASK { ?a zzz ?b . }",
        ])
        assert code == 0
        assert output.strip() == "no"


class TestExplainCommand:
    def test_explain_shows_plan(self, movie_nt):
        code, output = run_cli([
            "explain", movie_nt,
            "SELECT * WHERE { ?d directed ?m . ?d born_in ?c . }",
        ])
        assert code == 0
        assert "profile: virtuoso-like" in output
        assert "BGP (2 patterns)" in output

    def test_explain_engine_flag(self, movie_nt):
        code, output = run_cli([
            "explain", movie_nt,
            "SELECT * WHERE { ?d directed ?m . }",
            "--engine", "rdfox-like",
        ])
        assert code == 0
        assert "rdfox-like" in output


class TestProfiling:
    X1 = ("SELECT * WHERE { ?director directed ?movie . "
          "?director worked_with ?coworker . }")

    def test_profile_renders_span_tree(self, movie_nt):
        code, output = run_cli([
            "query", movie_nt, self.X1, "--mode", "pruned", "--profile",
        ])
        assert code == 0
        assert "2 solutions" in output
        tree = [l for l in output.splitlines() if l.startswith("query")]
        assert tree, output
        assert "100.0%" in tree[0]
        assert "solve" in output
        assert "join" in output

    def test_trace_out_writes_otel_jsonl(self, movie_nt, tmp_path):
        import json

        trace_path = tmp_path / "trace.jsonl"
        code, output = run_cli([
            "query", movie_nt, self.X1, "--mode", "pruned",
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        assert f"trace written to {trace_path}" in output
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert records[0]["name"] == "query"
        assert records[0]["parent_span_id"] == ""
        for record in records:
            assert record["end_time_unix_nano"] >= \
                record["start_time_unix_nano"]

    def test_profile_without_flag_prints_no_tree(self, movie_nt):
        code, output = run_cli([
            "query", movie_nt, self.X1, "--mode", "pruned",
        ])
        assert code == 0
        assert not any(
            line.startswith("query [") for line in output.splitlines()
        )

    def test_db_query_profile_coverage_on_pruned_lubm(self, tmp_path):
        """Acceptance: the span tree of a pruned LUBM query accounts
        for >= 95% of measured wall clock."""
        import json

        nt = tmp_path / "lubm.nt"
        snap = tmp_path / "lubm.snap"
        trace_path = tmp_path / "trace.jsonl"
        code, _ = run_cli([
            "generate", "lubm", "--out", str(nt), "--universities", "2",
        ])
        assert code == 0
        code, _ = run_cli(["db", "build", str(nt), "-o", str(snap)])
        assert code == 0
        code, output = run_cli([
            "db", "query", str(snap),
            "SELECT * WHERE { ?x advisor ?y . ?x takesCourse ?z . }",
            "--mode", "pruned", "--profile",
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        assert "pruning:" in output
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        root = next(r for r in records if r["parent_span_id"] == "")
        assert root["name"] == "query"
        total = root["end_time_unix_nano"] - root["start_time_unix_nano"]
        covered = sum(
            r["end_time_unix_nano"] - r["start_time_unix_nano"]
            for r in records
            if r["parent_span_id"] == root["span_id"]
        )
        assert total > 0
        assert covered / total >= 0.95, covered / total

    def test_db_query_stats_json(self, tmp_path, movie_nt):
        import json

        snap = tmp_path / "movies.snap"
        code, _ = run_cli(["db", "build", movie_nt, "-o", str(snap)])
        assert code == 0
        code, output = run_cli([
            "db", "query", str(snap), self.X1,
            "--mode", "pruned", "--stats-json",
        ])
        assert code == 0
        start, end = output.index("{"), output.rindex("}") + 1
        stats = json.loads(output[start:end])
        assert stats["backend"] == "snapshot"
        assert "residency" in stats
        assert "promotion_retries" in stats["residency"]
        assert stats["metrics"]["queries_total"] >= 1
        assert "trace" not in stats

    def test_db_query_stats_json_with_profile_adds_trace(
        self, tmp_path, movie_nt
    ):
        import json

        snap = tmp_path / "movies2.snap"
        code, _ = run_cli(["db", "build", movie_nt, "-o", str(snap)])
        assert code == 0
        code, output = run_cli([
            "db", "query", str(snap), self.X1,
            "--mode", "pruned", "--stats-json", "--profile",
        ])
        assert code == 0
        start, end = output.index("{"), output.rindex("}") + 1
        stats = json.loads(output[start:end])
        assert "trace" in stats
        assert stats["trace"]["coverage"] > 0
        assert "query" in stats["trace"]["spans"]

    def test_db_info_json_includes_metrics(self, tmp_path, movie_nt):
        import json

        snap = tmp_path / "movies3.snap"
        code, _ = run_cli(["db", "build", movie_nt, "-o", str(snap)])
        assert code == 0
        code, output = run_cli(["db", "info", str(snap), "--json"])
        assert code == 0
        assert "metrics" in json.loads(output)
