"""Smoke test of the e2e harness (opt-in, like the rest of benchmarks/):

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_smoke.py

Runs every workload at `--smoke` scale (LUBM(2), DBpedia scale 1, 2 s
windows) and checks the contract the real runs rely on.
"""

import json
import math
import socket
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    return out, done


def test_exits_clean_and_reports_no_failed_ops(smoke):
    out, done = smoke
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads((out / "result.json").read_text())
    assert sorted(result["workloads"]) == sorted(WORKLOADS)
    for name, entry in result["workloads"].items():
        assert entry["failed_ops"] == 0, name
        assert entry["ops"] > 0, name


def test_every_metric_is_printed(smoke):
    _out, done = smoke
    sections = done.stdout.split("\n== ")[1:]
    assert len(sections) == len(WORKLOADS)
    for section in sections:
        printed = {}
        for line in section.splitlines()[1:]:
            fields = line.split()
            if len(fields) >= 3 and not line.lstrip().startswith(
                ("end-to-end", "per-layer", "result file")
            ):
                printed[fields[0]] = fields[2]
        for metric in SPEC["end_to_end"]:
            value = float(printed[metric["name"]])
            assert math.isfinite(value) and value > 0, metric["name"]
        for metric in SPEC["per_layer"]:
            shown = printed[metric["name"]]
            assert shown == "–" or math.isfinite(float(shown)), metric["name"]


def test_single_run_prints_the_contract_line(smoke):
    out, _done = smoke
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "lubm_solve",
             "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--smoke", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0
        assert sorted(line["metrics"]) == sorted(
            m["name"] for m in SPEC[kind]
        )


def test_trace_files_parse_and_parents_exist(smoke):
    out, _done = smoke
    for name in WORKLOADS:
        spans = [
            json.loads(line)
            for line in (out / f"trace-{name}.jsonl").read_text().splitlines()
        ]
        assert spans, name
        ids = {span["span_id"] for span in spans}
        for span in spans:
            assert span["end_ns"] >= span["start_ns"]
            assert span["parent_id"] is None or span["parent_id"] in ids
            assert span["op_id"].startswith(name + "/")


def test_table3_and_cleanup(smoke):
    out, _done = smoke
    table = (out / "table3.txt").read_text()
    assert "lubm_solve" in table and "dbpedia_join" in table
    # No temp snapshot left behind, no server child still listening.
    assert not list(out.glob("snap-*"))
    runs = json.loads((out / "run-serve_mix-e2e-seed1.json").read_text())
    port = runs.get("server_port")
    assert port
    with socket.socket() as probe:
        assert probe.connect_ex(("127.0.0.1", port)) != 0


def test_compare_same_file_is_clean(smoke):
    out, _done = smoke
    result = str(out / "result.json")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "compare", result, result],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert " worse" not in done.stdout and "unresolved" not in done.stdout
