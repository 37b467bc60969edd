"""CLI robustness: `db verify`, preemptable `db query`, error paths."""

import io

import pytest

from repro.api import clear_open_cache
from repro.cli import EXIT_DEADLINE, main
from repro.graph import example_movie_database
from repro.graph.io import save_ntriples
from repro.testing import corrupt_copy, corruption_cases

QUERY = (
    "SELECT * WHERE { ?director directed ?movie . "
    "?director worked_with ?coworker . }"
)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _token_line(output):
    """The continuation token printed by a suspended `db query` (the
    one long space-free line; residency stats follow it)."""
    return next(
        line for line in output.splitlines()
        if " " not in line and len(line) > 40
    )


@pytest.fixture
def movie_snap(tmp_path):
    nt = tmp_path / "movies.nt"
    save_ntriples(example_movie_database(), nt)
    snap = tmp_path / "movies.snap"
    code, _ = run_cli(["db", "build", str(nt), "-o", str(snap)])
    assert code == 0
    clear_open_cache()
    return snap


class TestDbVerify:
    def test_pristine_snapshot_passes(self, movie_snap):
        code, output = run_cli(["db", "verify", str(movie_snap)])
        assert code == 0
        assert "format v4" in output
        assert "integrity bar CRC32C" in output
        assert "ok: all" in output

    def test_json_output(self, movie_snap):
        import json

        code, output = run_cli(
            ["db", "verify", str(movie_snap), "--json"]
        )
        assert code == 0
        report = json.loads(output)
        assert report["ok"] is True
        assert report["sections"]

    def test_every_corruption_class_fails_verify(
        self, movie_snap, tmp_path
    ):
        """Exit code 1 for every injected corruption class — whether
        detection happens at open (metadata) or in the sweep
        (payloads)."""
        for case in corruption_cases(movie_snap):
            target = corrupt_copy(
                movie_snap, case, tmp_path / f"{case.name}.snap"
            )
            clear_open_cache()
            code, _ = run_cli(["db", "verify", str(target)])
            assert code == 1, case.name
            target.unlink()

    def test_verify_reports_the_damaged_section(
        self, movie_snap, tmp_path
    ):
        payload_case = next(
            c for c in corruption_cases(movie_snap)
            if c.detected_at == "verify"
        )
        target = corrupt_copy(
            movie_snap, payload_case, tmp_path / "damaged.snap"
        )
        clear_open_cache()
        code, output = run_cli(["db", "verify", str(target)])
        assert code == 1
        assert payload_case.section in output

    def test_retired_format_is_an_error(self, movie_snap, tmp_path):
        data = bytearray(movie_snap.read_bytes())
        data[8:12] = (2).to_bytes(4, "little")  # a format-v2 header
        path = tmp_path / "v2.snap"
        path.write_bytes(bytes(data))
        code, output = run_cli(["db", "verify", str(path)])
        assert code == 1
        assert output == ""  # the typed error goes to stderr

    def test_missing_file_is_an_error(self, tmp_path):
        code, _ = run_cli(["db", "verify", str(tmp_path / "no.snap")])
        assert code == 1  # SnapshotError("snapshot not found: ...")


class TestDbInfoFormat:
    def test_info_reports_version_and_checksums(self, movie_snap):
        code, output = run_cli(["db", "info", str(movie_snap)])
        assert code == 0
        assert "format: v4, checksums: per-section CRC32C" in output

    def test_info_json_reports_version(self, movie_snap):
        import json

        code, output = run_cli(
            ["db", "info", str(movie_snap), "--json"]
        )
        assert code == 0
        info = json.loads(output)
        assert info["version"] == 4


class TestPreemptableQuery:
    def test_quantum_suspends_and_resumes_to_same_answer(
        self, movie_snap, tmp_path
    ):
        code, expected = run_cli(
            ["db", "query", str(movie_snap), QUERY, "--mode", "pruned"]
        )
        assert code == 0
        expected_count = next(
            line for line in expected.splitlines()
            if line.endswith("solutions")
        )
        token_file = tmp_path / "token.txt"
        code, output = run_cli([
            "db", "query", str(movie_snap), QUERY, "--mode", "pruned",
            "--quantum", "0", "--token-out", str(token_file),
        ])
        assert code == 0
        assert "suspended" in output
        assert token_file.exists()
        for _ in range(10_000):  # bounded loop, not while-true
            code, output = run_cli([
                "db", "query", str(movie_snap), "--mode", "pruned",
                "--quantum", "0",
                "--resume", f"@{token_file}",
                "--token-out", str(token_file),
            ])
            assert code == 0
            if "resumed to completion" in output:
                break
        else:
            pytest.fail("resume loop never completed")
        assert expected_count in output

    def test_resume_with_literal_token(self, movie_snap):
        code, output = run_cli([
            "db", "query", str(movie_snap), QUERY, "--mode", "pruned",
            "--quantum", "0",
        ])
        assert code == 0
        token = _token_line(output)
        code, output = run_cli([
            "db", "query", str(movie_snap), "--resume", token,
        ])
        assert code == 0
        assert "resumed to completion" in output

    def test_corrupt_token_exits_1(self, movie_snap):
        code, _ = run_cli([
            "db", "query", str(movie_snap), "--resume", "bogus-token",
        ])
        assert code == 1

    def test_stale_token_exits_1(self, movie_snap, tmp_path):
        """A token minted over one snapshot must not resume over a
        different database."""
        code, output = run_cli([
            "db", "query", str(movie_snap), QUERY, "--mode", "pruned",
            "--quantum", "0",
        ])
        assert code == 0
        token = _token_line(output)

        other_graph = example_movie_database()
        other_graph.add_edge("imposter", "directed", "nothing")
        other_nt = tmp_path / "other.nt"
        save_ntriples(other_graph, other_nt)
        other_snap = tmp_path / "other.snap"
        code, _ = run_cli(
            ["db", "build", str(other_nt), "-o", str(other_snap)]
        )
        assert code == 0
        clear_open_cache()
        code, _ = run_cli([
            "db", "query", str(other_snap), "--resume", token,
        ])
        assert code == 1

    def test_missing_query_without_resume_exits_1(self, movie_snap):
        code, _ = run_cli(
            ["db", "query", str(movie_snap), "--mode", "pruned"]
        )
        assert code == 1


class TestDeadline:
    def test_blown_deadline_exits_4(self, movie_snap):
        code, _ = run_cli([
            "db", "query", str(movie_snap), QUERY, "--mode", "pruned",
            "--deadline", "0.0001",
        ])
        assert code == EXIT_DEADLINE

    def test_generous_deadline_completes(self, movie_snap):
        code, output = run_cli([
            "db", "query", str(movie_snap), QUERY, "--mode", "pruned",
            "--deadline", "60000",
        ])
        assert code == 0
        assert "solutions" in output
