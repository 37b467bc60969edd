"""Result files, the printed report, and `compare`.

A result file holds, per workload, every run's end-to-end values (one
per seed), the per-layer values of the traced run, and the op counts.
`compare` reads two of them and judges each (end-to-end metric,
workload) pair against the bound fixed in BENCHMARK.json.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from measure import quartiles, spread

SCHEMA = "repro-e2e/v1"

#: Window series behind an end-to-end metric, for the quartiles and
#: sample count printed beside a single run's median.
WINDOW_SERIES = {
    "setup_s": "setup_s",
    "pruned_pass_ms": "pruned_pass_ms",
    "full_pass_ms": "full_pass_ms",
    "serve_p95_ms": "op_ms",
}

#: Counts that depend on the inputs only, never on timing: two runs of
#: one commit on one seed must agree on them exactly.
EXACT_COUNTS = (
    "compiler.inequalities", "solver.rounds", "solver.evaluations",
    "solver.updates", "solver.bits_removed", "pruning.triples_after",
    "store.solutions", "storage.promotions", "storage.join_index_fills",
    "storage.snapshot_bytes", "incremental.reuses", "incremental.cascades",
    "incremental.fallbacks", "incremental.cold_solves", "wire.bytes",
)


def assemble(runs: Dict[str, List[Dict]], spec: Dict, seconds: float) -> Dict:
    workloads = {}
    env = {}
    for name, details in runs.items():
        e2e = [d for d in details if not d["trace"]]
        traced = [d for d in details if d["trace"]]
        if not e2e:
            continue
        env = e2e[0]["env"]
        entry = {
            "seeds": [d["seed"] for d in e2e],
            "clients": e2e[0].get("clients", 1),
            "ops": sum(d["result"]["attempted"] for d in details),
            "failed_ops": sum(d["result"]["failed"] for d in details),
            "end_to_end": {
                m["name"]: [
                    d["result"]["metrics"][m["name"]]["value"] for d in e2e
                ]
                for m in spec["end_to_end"]
            },
            "window": e2e[0]["samples"],
            "window_s": [d["window_s"] for d in e2e],
        }
        if traced:
            produced = set(traced[0]["produced"])
            entry["per_layer"] = {
                m["name"]: traced[0]["result"]["metrics"][m["name"]]["value"]
                for m in spec["per_layer"] if m["name"] in produced
            }
        workloads[name] = entry
    return {
        "schema": SCHEMA, "env": env, "seconds": seconds,
        "workloads": workloads,
    }


def failed_ops(result: Dict) -> int:
    return sum(w["failed_ops"] for w in result["workloads"].values())


def fmt(value: float) -> str:
    if not math.isfinite(value):
        return "nan"
    if value == int(value) and abs(value) >= 1000:
        return str(int(value))
    return f"{value:.4g}"


def render(result: Dict, spec: Dict) -> str:
    env = result["env"]
    lines = [
        f"repro e2e benchmark ({result['schema']})",
        "  " + ", ".join(f"{k}={v}" for k, v in env.items()),
        f"  window {result['seconds']} s per run; OS page cache warm "
        "(snapshots are read right after they are written)",
    ]
    for name, entry in result["workloads"].items():
        n_runs = len(entry["seeds"])
        lines += [
            "",
            f"== {name}: seeds {entry['seeds']}, clients {entry['clients']}, "
            f"ops {entry['ops']}, failed_ops {entry['failed_ops']}",
            f"  {'end-to-end metric':<22}{'unit':<6}{'value':>11}"
            f"{'q1':>11}{'q3':>11}{'n':>6}  of",
        ]
        for metric in spec["end_to_end"]:
            values = entry["end_to_end"][metric["name"]]
            series = entry["window"].get(WINDOW_SERIES.get(metric["name"], ""))
            if n_runs > 1 or series is None:  # value: median over runs
                q1, mid, q3 = quartiles(values)
                n, of = len(values), "runs"
            else:  # one run: its value, and the spread inside its window
                q1, q3, n = series["q1"], series["q3"], series["n"]
                mid, of = values[0], "window samples"
            lines.append(
                f"  {metric['name']:<22}{metric['unit']:<6}{fmt(mid):>11}"
                f"{fmt(q1):>11}{fmt(q3):>11}{n:>6}  {of}"
            )
        layers = entry.get("per_layer")
        if layers is None:
            continue
        lines.append(f"  {'per-layer metric (traced run)':<34}{'unit':<7}value")
        for metric in spec["per_layer"]:
            value = layers.get(metric["name"])
            shown = "–" if value is None else fmt(value)
            lines.append(
                f"  {metric['name']:<34}{metric['unit']:<7}{shown}"
            )
    return "\n".join(lines)


def verdict(a: List[float], b: List[float], metric: Dict) -> Tuple[str, float]:
    mid_a, mid_b = quartiles(a)[1], quartiles(b)[1]
    ratio = mid_b / mid_a if mid_a else float("nan")
    bound = metric["bound"]
    if max(spread(a), spread(b)) > bound:
        return "unresolved", ratio
    if metric["better"] == "lower":
        worse = ratio > 1.0 + bound
    else:
        worse = ratio < 1.0 - bound
    return ("worse" if worse else "ok"), ratio


def compare(a: Dict, b: Dict, spec: Dict) -> Tuple[str, bool]:
    """One row per (end-to-end metric, workload); second value is True
    when no row is `worse` or `unresolved` and no exact count differs."""
    lines = [
        f"A: commit {a['env'].get('commit')}   "
        f"B: commit {b['env'].get('commit')}",
        f"{'workload':<15}{'metric':<19}{'A median':>10}{'A q1..q3':>20}"
        f"{'B median':>10}{'B q1..q3':>20}{'B/A':>8}{'bound':>7}  verdict",
    ]
    clean = True
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            va = wa["end_to_end"][metric["name"]]
            vb = wb["end_to_end"][metric["name"]]
            word, ratio = verdict(va, vb, metric)
            clean &= word == "ok"
            qa, qb = quartiles(va), quartiles(vb)
            lines.append(
                f"{name:<15}{metric['name']:<19}{fmt(qa[1]):>10}"
                f"{fmt(qa[0]) + '..' + fmt(qa[2]):>20}{fmt(qb[1]):>10}"
                f"{fmt(qb[0]) + '..' + fmt(qb[2]):>20}"
                f"{ratio:>8.3f}{metric['bound']:>7.2f}  {word}"
                f" (base A = {fmt(qa[1])} {metric['unit']})"
            )
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        for key in EXACT_COUNTS:
            if key in la and key in lb and la[key] != lb[key]:
                clean = False
                lines.append(
                    f"{name:<15}{key:<19} exact count differs: "
                    f"A {fmt(la[key])}  B {fmt(lb[key])}"
                )
        if wa["failed_ops"] or wb["failed_ops"]:
            clean = False
            lines.append(
                f"{name:<15}failed_ops: A {wa['failed_ops']}  "
                f"B {wb['failed_ops']}"
            )
    return "\n".join(lines), clean
