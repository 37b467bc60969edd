"""Integration tests for `repro db compact`."""

import io

import pytest

from repro import Database
from repro.cli import main
from repro.graph import GraphDatabase, example_movie_database
from repro.graph.io import save_ntriples

X1 = ("SELECT * WHERE { ?director directed ?movie . "
      "?director worked_with ?coworker . }")


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def movie_snap(tmp_path):
    nt = tmp_path / "movies.nt"
    save_ntriples(example_movie_database(), nt)
    path = tmp_path / "movies.snap"
    code, _ = run_cli(["db", "build", str(nt), "-o", str(path)])
    assert code == 0
    return str(path)


def _nt_file(tmp_path, name, triples):
    path = tmp_path / name
    save_ntriples(GraphDatabase.from_triples(triples), path)
    return str(path)


class TestDbCompact:
    def test_compact_with_add_and_retract(self, movie_snap, tmp_path):
        add = _nt_file(tmp_path, "add.nt", [
            ("Q. Tarantino", "directed", "Pulp Fiction"),
            ("Q. Tarantino", "worked_with", "S. L. Jackson"),
        ])
        retract = _nt_file(tmp_path, "retract.nt", [
            ("B. De Palma", "worked_with", "D. Koepp"),
        ])
        out_path = tmp_path / "edited.snap"
        code, output = run_cli([
            "db", "compact", movie_snap, "-o", str(out_path),
            "--add", add, "--retract", retract,
        ])
        assert code == 0
        assert "applied +2/-1 triples" in output
        assert "21 triples" in output
        db = Database.open(out_path, cached=False)
        try:
            rows = sorted(repr(r) for r in db.query(X1).rows())
            assert any("Tarantino" in r for r in rows)
            assert not any("D. Koepp" in r for r in rows)
        finally:
            db.close()

    def test_compact_without_deltas_rewrites(self, movie_snap, tmp_path):
        out_path = tmp_path / "copy.snap"
        code, output = run_cli([
            "db", "compact", movie_snap, "-o", str(out_path),
        ])
        assert code == 0
        assert "applied +0/-0 triples" in output
        assert "20 triples" in output

    def test_compact_missing_snapshot_exits_1(self, tmp_path):
        # Matches `db query` on a missing snapshot: a ReproError.
        code, _ = run_cli([
            "db", "compact", str(tmp_path / "nope.snap"),
            "-o", str(tmp_path / "out.snap"),
        ])
        assert code == 1
