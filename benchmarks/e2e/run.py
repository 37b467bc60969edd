"""One clock: the end-to-end, layer-attributed benchmark of `repro`.

    python3 benchmarks/e2e/run.py                      # every workload, report
    python3 benchmarks/e2e/run.py --workload lubm_solve
    python3 benchmarks/e2e/run.py --runs 10 --save a.json
    python3 benchmarks/e2e/run.py compare a.json b.json
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The last form is one measured run in this process; its last line of
standard output is the JSON result (`--trace 0`: the end-to-end
metrics; `--trace 1`: the per-layer metrics).  The other forms start
one such process per workload and run, so every peak-RSS figure is
its workload's own.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

#: Set-ups per end-to-end run; `setup_s` is their median.  Writing the
#: LUBM(40) snapshot takes ~6 s, so the snapshot workloads afford two.
SETUP_REPS = {"lubm_solve": 3, "dbpedia_join": 3,
              "snapshot_edit": 2, "serve_mix": 2}

SMOKE_SECONDS = 2


def spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_metrics(workload, window, setup_s: List[float]) -> Dict:
    from measure import geomean, median, percentile, typical

    pruned = {
        name: typical(samples)
        for (name, mode), samples in window.query_ms.items()
        if mode == "pruned"
    }
    return {
        "setup_s": median(setup_s),
        "pruned_pass_ms": typical(window.series.get("pruned_pass_ms", [])),
        "full_pass_ms": typical(window.series.get("full_pass_ms", [])),
        "pruned_geomean_ms": geomean(pruned.values()),
        "serve_qps": (
            window.completed / window.elapsed_s if window.elapsed_s else 0.0
        ),
        "serve_p95_ms": percentile(window.op_ms, 95),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def terminated(signum, _frame):
    """SIGTERM/SIGHUP unwind like an exception, so every `finally`
    (server child, temp snapshot) still runs."""
    raise SystemExit(128 + signum)


def run_once(args) -> int:
    """One workload, one seed, in this process."""
    import measure
    from loads import FULL, SMOKE, WORKLOADS, Window
    from spans import SpanRecorder
    from staged import trace_workload

    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, terminated)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    units = {
        kind: {m["name"]: m["unit"] for m in spec()[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    workload = WORKLOADS[args.workload](
        args.seed, SMOKE if args.smoke else FULL, out_dir
    )
    window = Window()
    detail: Dict[str, object] = {}
    reps = 1 if (args.trace or args.smoke) else SETUP_REPS[args.workload]
    setup_s: List[float] = []
    try:
        for rep in range(reps):
            if rep:
                workload.teardown()
            setup_s.append(workload.setup())
        workload.verify(window)
        if args.trace:
            recorder = SpanRecorder()
            values, table = trace_workload(
                workload, recorder, window, args.seconds
            )
            values.update(workload.setup_layers)
            values["calib.numpy_ms"] = measure.calib_numpy_ms()
            values["calib.python_ms"] = measure.calib_python_ms()
            unknown = sorted(set(values) - set(units["per_layer"]))
            if unknown:
                raise RuntimeError(f"not in BENCHMARK.json: {unknown}")
            recorder.write_jsonl(out_dir / f"trace-{args.workload}.jsonl")
            detail["table3"] = table
            detail["produced"] = sorted(values)
            wanted = units["per_layer"]
        else:
            workload.measure(args.seconds, window)
            values = end_to_end_metrics(workload, window, setup_s)
            detail["samples"] = {
                name: measure.summary(samples)
                for name, samples in window.series.items()
            }
            detail["samples"]["op_ms"] = measure.summary(window.op_ms)
            detail["samples"]["setup_s"] = measure.summary(setup_s)
            detail["window_s"] = window.elapsed_s
            detail.update(window.counts)
            wanted = units["end_to_end"]
    finally:
        try:
            workload.teardown()
        finally:
            leftover = measure.reap_children()
    if leftover:
        window.fail("teardown", f"{leftover} child process(es) left running")

    result = {
        "correct": window.failed == 0,
        "attempted": window.ops,
        "failed": window.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in wanted.items()
        },
    }
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, smoke=args.smoke, result=result,
        env=measure.environment(ROOT),
    )
    kind = "trace" if args.trace else "e2e"
    (out_dir / f"run-{args.workload}-{kind}-seed{args.seed}.json").write_text(
        json.dumps(detail, indent=1)
    )
    print(json.dumps(result))
    return 0 if window.failed == 0 else 1


def run_report(args) -> int:
    """Every (or one) workload, `--runs` seeds each, one process per
    run; prints the report and writes the result file."""
    import report
    from loads import WORKLOADS

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds or (
        SMOKE_SECONDS if args.smoke else spec()["run_seconds"]
    )
    chosen = [args.workload] if args.workload else list(WORKLOADS)
    runs: Dict[str, List[Dict]] = {name: [] for name in chosen}
    failed = False
    for name in chosen:
        for k in range(args.runs):
            for trace in (0, 1):
                if trace and k:  # counts repeat; one traced run each
                    continue
                seed = args.seed + k
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace), "--out", str(out_dir),
                ] + (["--smoke"] if args.smoke else [])
                print(f"# {name} seed {seed} trace {trace} ...",
                      file=sys.stderr, flush=True)
                done = subprocess.run(
                    command, stdout=subprocess.PIPE, text=True, timeout=900
                )
                kind = "trace" if trace else "e2e"
                path = out_dir / f"run-{name}-{kind}-seed{seed}.json"
                if done.returncode not in (0, 1) or not path.exists():
                    print(f"{name}: run exited {done.returncode}",
                          file=sys.stderr)
                    failed = True
                    continue
                failed |= done.returncode != 0
                runs[name].append(json.loads(path.read_text()))
    result = report.assemble(runs, spec(), seconds)
    target = Path(args.save) if args.save else out_dir / "result.json"
    target.write_text(json.dumps(result, indent=1))
    rows = [
        row for name in chosen for run in runs[name]
        for row in run.get("table3", [])
        if name in ("lubm_solve", "dbpedia_join")
    ]
    if rows:
        from staged import render_table3

        (out_dir / "table3.txt").write_text(render_table3(rows))
    print(report.render(result, spec()))
    print(f"result file: {target}")
    return 1 if failed or report.failed_ops(result) else 0


def main(argv: List[str]) -> int:
    if argv and argv[0] == "compare":
        import report

        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        text, clean = report.compare(a, b, spec())
        print(text)
        return 0 if clean else 1

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="window length (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: one run in this process")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for result, trace and temp files")
    parser.add_argument("--runs", type=int, default=1,
                        help="report mode: seeds per workload")
    parser.add_argument("--save", default=None,
                        help="report mode: result file (default OUT/result.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="LUBM(2), DBpedia scale 1, 2 s windows")
    args = parser.parse_args(argv)

    # Set iteration order, and with it allocation and join order,
    # follows the string hash seed; left random it moves pass times
    # by several percent from one process to the next.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__] + argv, env)

    if args.trace is None:
        return run_report(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec()["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
