"""The traced run: the same queries, stage by stage, under spans.

`Database._execute_query` is a composition of public functions —
`parse_query` -> `compile_query` -> `solve` per union branch ->
`prune` -> `PruneResult.to_store` -> `QueryEngine.execute` ->
`ResultSet.rows` (-> `encode_rows` on a server).  The traced run calls
those functions itself, against the session's own `backend.graph` and
`backend.triple_store()`, and wraps each call in a span.  What the
façade adds on top (budget arming, metrics, parsing the text twice)
is what `trace.unattributed_frac` reports; `trace.overhead_frac` says
how far the staged pass is from the façade pass it imitates.

Times are sums over one pass, medians over the traced passes.  A
layer the workload never executes reads 0.
"""

from __future__ import annotations

import gc
import json
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from loads import (
    MODES,
    ServeMix,
    SnapshotEdit,
    Window,
    Workload,
)
from measure import clock, median, ms_since
from spans import SpanRecorder

from repro import (
    Database,
    ExecutionProfile,
    QueryEngine,
    ResultSet,
    compile_query,
    parse_query,
    prune,
    solve,
)
from repro.serve.protocol import decode_rows, encode_rows

#: "≤ 10 passes, outside the window"
MAX_ROUNDS = 10

#: Stages of a pruned query, in pipeline order.  On a full query
#: `store.join_full` replaces everything between parse and decode.
PRUNED_STAGES = (
    "sparql.parse", "compiler.compile", "solver.solve", "pruning.extract",
    "store.to_store", "store.join_pruned", "result.decode",
)


def staged_query(
    rec: SpanRecorder, backend, profile: ExecutionProfile, text: str,
    mode: str, full_engine: QueryEngine,
) -> Dict[str, float]:
    """One query through the public stage functions; returns the
    counts read at the stage boundaries."""
    facts: Dict[str, float] = {}
    with rec.span("query." + mode):
        with rec.span("sparql.parse"):
            query = parse_query(text)
        if mode == "full":
            with rec.span("store.join_full"):
                result = full_engine.execute(query)
        else:
            with rec.span("compiler.compile"):
                compiled = compile_query(query)
            solved = []
            for branch in compiled:
                with rec.span("solver.solve"):
                    solved.append(
                        solve(branch.soi, backend.graph,
                              profile.solver_options())
                    )
            with rec.span("pruning.extract"):
                pruned = prune(backend.graph, solved)
            with rec.span("store.to_store"):
                store = pruned.to_store()
            with rec.span("store.join_pruned"):
                result = QueryEngine(store, profile.engine).execute(query)
            facts["compiler.inequalities"] = sum(
                len(branch.soi.inequalities) for branch in compiled
            )
            for counter in ("rounds", "evaluations", "updates",
                            "bits_removed"):
                facts["solver." + counter] = sum(
                    getattr(s.report, counter) for s in solved
                )
            facts["pruning.triples_after"] = pruned.n_triples_after
            facts["pruning.prune_ratio"] = pruned.pruned_fraction
        with rec.span("result.decode"):
            rows = ResultSet(result, mode=mode).rows()
    # Not part of a local query: what a server would add on the way
    # out and a client on the way in.
    with rec.span("wire.encode"):
        body = json.dumps(encode_rows(rows))
    with rec.span("wire.decode"):
        decode_rows(json.loads(body))
    facts["store.solutions"] = len(rows)
    facts["wire.bytes"] = len(body)
    return facts


class LocalTrace:
    """Interleaved façade and staged passes over one local session of
    a workload, and the per-layer numbers read back from the spans."""

    def __init__(
        self, db: Database, workload: Workload, rec: SpanRecorder,
        window: Window,
    ):
        self.db = db
        self.workload = workload
        self.order = workload.order
        self.queries = workload.queries
        self.rec = rec
        self.window = window
        self.facade: Dict[str, List[float]] = {mode: [] for mode in MODES}
        self.rounds = 0
        self.facts: Dict[Tuple[str, str], Dict[str, float]] = {}
        #: (mode, query, span name) -> self time summed per round (a
        #: query with several union branches has several solve spans)
        self.times: Dict[Tuple[str, str, str], List[float]] = {}
        self.verdicts: Dict[str, str] = {}

    def collect(
        self, seconds: float
    ) -> Tuple[Dict[str, float], List[Dict[str, object]]]:
        """Everything a local session yields: (metrics, table rows)."""
        first_span = len(self.rec.spans)
        self.run(0.55 * seconds)
        self.read_spans(first_span)
        metrics = self.metrics()
        metrics.update(self.extras(0.15 * seconds))
        return metrics, self.table_rows()

    def run(self, budget_s: float) -> None:
        backend, profile = self.db.backend, self.db.profile
        full_engine = QueryEngine(backend.triple_store(), profile.engine)
        start = clock()
        while self.rounds < MAX_ROUNDS and (
            self.rounds < 2 or clock() - start < budget_s
        ):
            for mode in MODES:
                self.window.collect_garbage()
                took = self.window.run_pass(self.db, self.workload, mode)
                if took is not None:
                    self.facade[mode].append(took)
                gc.collect()
                with profile.kernel_context():
                    for name in self.order:
                        op = f"{self.workload.name}/{mode}-{self.rounds}/{name}"
                        with self.rec.operation(op):
                            self.facts[(name, mode)] = staged_query(
                                self.rec, backend, profile,
                                self.queries[name], mode, full_engine,
                            )
            self.rounds += 1

    def read_spans(self, first_span: int) -> None:
        self_ms = self.rec.self_times_ms()
        for span in self.rec.spans[first_span:]:
            _workload, pass_id, name = span.op_id.split("/")
            mode, round_no = pass_id.split("-")
            per_round = self.times.setdefault(
                (mode, name, span.name), [0.0] * self.rounds
            )
            per_round[int(round_no)] += self_ms[span.span_id]

    def stage_ms(self, mode: str, name: str, stage: str) -> float:
        """One query's stage time, median over rounds."""
        return median(self.times.get((mode, name, stage), []))

    def pass_ms(self, mode: str, stage: str) -> float:
        """The stage's sum over a pass, median over rounds."""
        return median([
            sum(self.times.get((mode, name, stage), [0.0] * self.rounds)[k]
                for name in self.order)
            for k in range(self.rounds)
        ])

    def metrics(self) -> Dict[str, float]:
        out = {
            "sparql.parse_ms": self.pass_ms("pruned", "sparql.parse"),
            "compiler.compile_ms": self.pass_ms("pruned", "compiler.compile"),
            "solver.solve_ms": self.pass_ms("pruned", "solver.solve"),
            "pruning.extract_ms": self.pass_ms("pruned", "pruning.extract"),
            "store.to_store_ms": self.pass_ms("pruned", "store.to_store"),
            "store.join_pruned_ms": self.pass_ms("pruned", "store.join_pruned"),
            "store.join_full_ms": self.pass_ms("full", "store.join_full"),
            "result.decode_ms": self.pass_ms("pruned", "result.decode"),
            "wire.encode_ms": self.pass_ms("pruned", "wire.encode"),
            "wire.decode_ms": self.pass_ms("pruned", "wire.decode"),
        }
        for key in ("compiler.inequalities", "solver.rounds",
                    "solver.evaluations", "solver.updates",
                    "solver.bits_removed", "pruning.triples_after",
                    "store.solutions", "wire.bytes"):
            out[key] = sum(
                self.facts[(name, "pruned")][key] for name in self.order
            )
        out["solver.update_ratio"] = (
            out["solver.updates"] / out["solver.evaluations"]
            if out["solver.evaluations"] else 0.0
        )
        out["pruning.prune_ratio"] = sum(
            self.facts[(name, "pruned")]["pruning.prune_ratio"]
            for name in self.order
        ) / len(self.order)
        facade = median(self.facade["pruned"])
        attributed = sum(
            self.pass_ms("pruned", stage) for stage in PRUNED_STAGES
        )
        staged = self.pass_ms("pruned", "query.pruned") + attributed
        if facade:
            out["trace.unattributed_frac"] = 1.0 - attributed / facade
            out["trace.overhead_frac"] = (staged - facade) / facade
        return out

    def extras(self, budget_s: float) -> Dict[str, float]:
        """Probes that are not stages of the default pipeline: the
        batched kernel, the program's own tracing, the advisor."""
        out: Dict[str, float] = {}
        backend, profile = self.db.backend, self.db.profile
        compiled = {
            name: compile_query(self.queries[name]) for name in self.order
        }
        batched = profile.replace(kernel="batched")
        totals = []
        for k in range(3):
            gc.collect()
            total = 0.0
            with batched.kernel_context():
                for name in self.order:
                    op = f"{self.workload.name}/batched-{k}/{name}"
                    with self.rec.operation(op):
                        for branch in compiled[name]:
                            with self.rec.span("solver.solve_batched") as s:
                                solve(branch.soi, backend.graph,
                                      batched.solver_options())
                            total += s.duration_ns / 1e6
            totals.append(total)
        out["solver.solve_batched_ms"] = median(totals)

        on, off = [], []
        start = clock()
        while len(on) < 5 and (len(on) < 2 or clock() - start < budget_s):
            for traced, sink in ((False, off), (True, on)):
                gc.collect()
                mark = clock()
                for name in self.order:
                    self.db.query(
                        self.queries[name], mode="pruned", trace=traced
                    ).rows()
                sink.append(ms_since(mark))
        out["obs.trace_on_overhead_frac"] = (
            (median(on) - median(off)) / median(off)
        )

        advise_ms = 0.0
        for name in self.order:
            mark = clock()
            advice = self.db.advise(self.queries[name])
            advise_ms += ms_since(mark)
            self.verdicts[name] = "pruned" if advice.recommended else "full"
        out["advisor.advise_ms"] = advise_ms
        out["advisor.agree_frac"] = sum(
            self.verdicts[name] == self.winner(name) for name in self.order
        ) / len(self.order)
        return out

    def query_p50(self, name: str, mode: str) -> float:
        return median(self.window.query_ms.get((name, mode), []))

    def winner(self, name: str) -> str:
        """The mode whose façade latency was lower on this run."""
        pruned = self.query_p50(name, "pruned")
        return "pruned" if pruned < self.query_p50(name, "full") else "full"

    def table_rows(self) -> List[Dict[str, object]]:
        """Per query, the columns of the paper's Tables 3-5."""
        rows = []
        for name in self.order:
            sim = (self.stage_ms("pruned", name, "solver.solve")
                   + self.stage_ms("pruned", name, "pruning.extract"))
            db_pruned = self.stage_ms("pruned", name, "store.join_pruned")
            rows.append({
                "workload": self.workload.name,
                "query": name,
                "t_db_full_ms": self.stage_ms("full", name, "store.join_full"),
                "t_db_pruned_ms": db_pruned,
                "t_sparqlsim_ms": sim,
                "t_pruned_plus_sim_ms": db_pruned + sim,
                "results": int(self.facts[(name, "full")]["store.solutions"]),
                "triples_after": int(
                    self.facts[(name, "pruned")]["pruning.triples_after"]
                ),
                "advisor": self.verdicts[name],
                "measured": self.winner(name),
            })
        return rows


# -- per workload -----------------------------------------------------------


def counter_delta(before: Dict, after: Dict, name: str) -> float:
    return float(after.get(name, 0)) - float(before.get(name, 0))


def trace_snapshot_edit(
    workload: SnapshotEdit, rec: SpanRecorder, window: Window,
    seconds: float,
) -> Tuple[Dict[str, float], List[Dict[str, object]]]:
    out: Dict[str, float] = {}
    series: Dict[str, List[float]] = defaultdict(list)
    queries = workload.queries

    def steps(db: Database, requery_key: str) -> None:
        touched = set()
        for _index, verb, triple, query in workload.steps():
            write = db.retract if verb == "retract" else db.add
            mark = clock()
            write([triple])
            took = ms_since(mark)
            if requery_key == "incremental.requery_ms":
                if triple[1] in touched:
                    series["write"].append(took)
                else:  # first write to a clean label of this session
                    series["overlay.first_touch_write_ms"].append(took)
                    touched.add(triple[1])
            mark = clock()
            db.query(queries[query], mode="pruned").rows()
            series[requery_key].append(ms_since(mark))

    # A. What one fresh edit session costs, taken apart.
    start = clock()
    iterations = 0
    while iterations < 3 and (iterations < 1 or clock() - start < 0.3 * seconds):
        mark = clock()
        db = Database.edit(workload.path)
        try:
            before = db.stats().metrics
            series["storage.open_ms"].append(ms_since(mark))
            cold = window.run_pass(db, workload, "pruned", record=False)
            series["cold_pass_ms"].append(ms_since(mark))
            warm = window.run_pass(db, workload, "pruned")
            if cold is not None and warm is not None:
                series["storage.cold_penalty_ms"].append(cold - warm)
            window.run_pass(db, workload, "full")
            stats = db.stats()
            out["storage.promotions"] = stats.residency.promotions
            out["storage.resident_bytes"] = stats.residency.resident_bytes
            out["storage.join_index_fills"] = counter_delta(
                before, stats.metrics, "join_index_fills_total"
            )
            update_start = clock()
            steps(db, "incremental.requery_ms")
            series["update_query_ms"].append(
                ms_since(update_start) / len(workload.steps())
            )
            after = db.stats().metrics
            for mode in ("reuses", "cascades", "fallbacks", "cold_solves"):
                out[f"incremental.{mode}"] = counter_delta(
                    stats.metrics, after, f"incremental_{mode}_total"
                )
        finally:
            db.close()
        iterations += 1

    # B. The same steps with maintenance off: every re-query solves cold.
    control = ExecutionProfile(incremental=False)
    with Database.edit(workload.path, profile=control) as db:
        window.run_pass(db, workload, "pruned")
        steps(db, "incremental.cold_requery_ms")

    for key in ("storage.open_ms", "cold_pass_ms", "storage.cold_penalty_ms",
                "update_query_ms", "incremental.requery_ms",
                "incremental.cold_requery_ms",
                "overlay.first_touch_write_ms"):
        out[key] = median(series[key])
    writes = sorted(series["write"])
    out["overlay.write_p50_ms"] = median(writes)
    out["overlay.write_p95_ms"] = writes[int(0.95 * (len(writes) - 1))]
    out["incremental.speedup"] = (
        out["incremental.cold_requery_ms"] / out["incremental.requery_ms"]
    )

    # C. The stages, on a warm edit session's overlay backend.
    with Database.edit(workload.path) as db:
        mark = clock()
        db.backend.triple_store()
        out["store.build_ms"] = ms_since(mark)
        stage_metrics, rows = LocalTrace(db, workload, rec, window).collect(
            0.5 * seconds
        )
    out.update(stage_metrics)
    return out, rows


def histogram_p50(histogram: Dict) -> float:
    """Median of a `/metrics` histogram, interpolated inside its
    bucket (the server publishes bucket counts, not samples)."""
    buckets = sorted(
        (float(key[3:]), count)
        for key, count in histogram["buckets"].items()
    )
    half = histogram["count"] / 2.0
    seen = 0.0
    lower = float(histogram["min"])
    for upper, count in buckets:
        if seen + count >= half and count:
            return lower + (upper - lower) * (half - seen) / count
        seen += count
        lower = upper
    return float(histogram["max"])


def trace_serve_mix(
    workload: ServeMix, rec: SpanRecorder, window: Window, seconds: float
) -> Tuple[Dict[str, float], List[Dict[str, object]]]:
    out: Dict[str, float] = {}
    # A. The stages, on a local session over the served snapshot.
    with Database.open(workload.path, cached=False) as db:
        mark = clock()
        db.backend.triple_store()
        out["store.build_ms"] = ms_since(mark)
        local = LocalTrace(db, workload, rec, window)
        stage_metrics, rows = local.collect(0.55 * seconds)
    out.update(stage_metrics)

    # B. One client, nothing to wait for: remote minus local, per pass.
    session = workload.sessions[0]
    remote = Window()
    start = clock()
    passes = 0
    while passes < MAX_ROUNDS and (passes < 2 or clock() - start < 0.15 * seconds):
        remote.run_pass(session, workload, "pruned")
        passes += 1
    out["serve.overhead_ms"] = sum(
        median(remote.query_ms[(name, "pruned")])
        - local.query_p50(name, "pruned")
        for name in workload.order
    )
    window.absorb(remote)

    # C. The mix itself, briefly, to read the serving counters.
    before = session.backend.metrics()
    mix = Window()
    workload.measure(0.3 * seconds, mix)
    after = session.backend.metrics()
    out["serve_p50_ms"] = median(mix.op_ms)
    out["serve.fairness"] = mix.counts["serve.fairness"]
    out["serve.resubmissions_per_query"] = mix.counts[
        "serve.resubmissions_per_query"
    ]
    out["serve.requests"] = counter_delta(
        before, after, "server_requests_total"
    )
    out["serve.suspensions"] = counter_delta(
        before, after, "server_suspensions_total"
    )
    out["serve.server_p50_ms"] = histogram_p50(
        after["server_request_latency_ms"]
    )
    window.absorb(mix)
    return out, rows


def trace_workload(
    workload: Workload, rec: SpanRecorder, window: Window, seconds: float
) -> Tuple[Dict[str, float], List[Dict[str, object]]]:
    if isinstance(workload, SnapshotEdit):
        return trace_snapshot_edit(workload, rec, window, seconds)
    if isinstance(workload, ServeMix):
        return trace_serve_mix(workload, rec, window, seconds)
    return LocalTrace(workload.db, workload, rec, window).collect(seconds)


def render_table3(rows: Sequence[Dict[str, object]]) -> str:
    header = (
        f"{'workload':<14}{'query':<6}{'t_DB full':>11}{'t_DB pruned':>13}"
        f"{'t_SPARQLSIM':>13}{'pruned+SIM':>12}{'results':>9}"
        f"{'triples after':>15}  {'advisor':<8}{'measured':<8}"
    )
    lines = [
        "Per query, milliseconds (medians over the traced passes):",
        "t_SPARQLSIM = solve + extract; measured = faster façade mode.",
        "", header, "-" * len(header),
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<14}{row['query']:<6}"
            f"{row['t_db_full_ms']:>11.2f}{row['t_db_pruned_ms']:>13.2f}"
            f"{row['t_sparqlsim_ms']:>13.2f}"
            f"{row['t_pruned_plus_sim_ms']:>12.2f}{row['results']:>9}"
            f"{row['triples_after']:>15}  {row['advisor']:<8}"
            f"{row['measured']:<8}"
        )
    return "\n".join(lines) + "\n"
