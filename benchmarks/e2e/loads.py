"""The four workloads: inputs, set-up, oracle, and the untraced window.

Everything here drives `repro` from outside, through `Database` and
the other public entry points; the end-to-end metrics come from
these windows only (façade calls, tracing off).  The traced run that
attributes time to layers is in `staged.py`.

Inputs.  The *structure* of each dataset is part of the workload's
definition (LUBM generator seed 7, DBpedia generator seed 11): two
generator seeds differ by ~12 % in pass time, more than any bound
below, so they would turn every comparison into "unresolved".  What
`--seed` decides is everything that can vary without changing the
amount of work: the order triples are loaded in (hence every node id,
dictionary id and bit position the program sees), which triples the
update steps touch, and where each client starts its cycle.
"""

from __future__ import annotations

import gc
import os
import pickle
import random
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from measure import (
    child_peak_rss_mb,
    clock,
    current_rss_mb,
    ms_since,
    peak_rss_mb,
)

from repro import Database, ExecutionProfile, parse_query
from repro.graph.database import GraphDatabase
from repro.sparql.ast import is_well_designed
from repro.storage import write_snapshot
from repro.workloads import (
    BENCH_QUERIES,
    DBPEDIA_QUERIES,
    LUBM_QUERIES,
    generate_dbpedia,
    generate_lubm,
)

MODES = ("pruned", "full")

LUBM_GENERATOR_SEED = 7
DBPEDIA_GENERATOR_SEED = 11

#: Server quantum: L0-L2 pruned outlive it, so 206/resubmit is exercised.
SERVE_QUANTUM_MS = 25

#: Update steps of `snapshot_edit`: (label of the triple, query re-run).
#: Each inside-cone write (a label L0 and L2 both use) is followed by an
#: outside-cone write re-running the *same* query, so that query has
#: seen nothing but the outside label change since its last solve: the
#: first of each pair re-solves (cascade, or fallback on these cyclic
#: queries), the second is a cascade with an empty seed set.
UPDATE_PLAN = (
    ("takesCourse", "L0"), ("name", "L0"), ("advisor", "L2"),
    ("emailAddress", "L2"), ("teacherOf", "L0"), ("name", "L0"),
)

#: Warm passes per `snapshot_edit` iteration.  An iteration costs ~2.5 s
#: (the cold pass dominates), so one warm pass each would leave the
#: warm medians resting on half a dozen samples.
WARM_PRUNED_PASSES = 3
WARM_FULL_PASSES = 2


@dataclass(frozen=True)
class Scale:
    lubm_universities: int
    dbpedia_scale: int
    dbpedia_padding: int


FULL = Scale(lubm_universities=40, dbpedia_scale=12, dbpedia_padding=6)
SMOKE = Scale(lubm_universities=2, dbpedia_scale=1, dbpedia_padding=6)


# -- inputs ----------------------------------------------------------------


def generate(dataset: str, scale: Scale, seed: int) -> GraphDatabase:
    if dataset == "lubm":
        base = generate_lubm(
            n_universities=scale.lubm_universities,
            seed=LUBM_GENERATOR_SEED,
        )
    else:
        base = generate_dbpedia(
            scale=scale.dbpedia_scale,
            padding=scale.dbpedia_padding,
            seed=DBPEDIA_GENERATOR_SEED,
        )
    # Sorted first: the generators iterate sets, so their own order
    # follows the interpreter's hash seed, not ours.
    triples = sorted(base.triples(), key=repr)
    random.Random(seed).shuffle(triples)
    return GraphDatabase.from_triples(triples)


def generate_timed(
    dataset: str, scale: Scale, seed: int
) -> Tuple[GraphDatabase, Dict[str, float]]:
    """The graph with its matrices built, and what each step cost.
    The first query (or `write_snapshot`) would build the matrices
    anyway; building them here only makes the cost separately readable."""
    start = clock()
    graph = generate(dataset, scale, seed)
    layers = {"workloads.generate_ms": ms_since(start)}
    rss_before = current_rss_mb()
    start = clock()
    graph.matrices()
    layers["graph.matrices_ms"] = ms_since(start)
    layers["graph.matrices_rss_mb"] = current_rss_mb() - rss_before
    return graph, layers


def queries_of(dataset: str) -> Dict[str, str]:
    if dataset == "lubm":
        return dict(LUBM_QUERIES)
    return {**DBPEDIA_QUERIES, **BENCH_QUERIES}


# -- samples and failure accounting ----------------------------------------


@dataclass
class Window:
    """Everything one run observed: op counts, failures, raw samples."""

    #: window length: wall time minus the harness's own housekeeping
    elapsed_s: float = 0.0
    housekeeping_s: float = 0.0
    ops: int = 0        # attempted, oracle comparisons included
    completed: int = 0  # timed ops that succeeded (throughput)
    failed: int = 0
    #: latencies of steady-state ops (the p95 population); a fresh
    #: session's cold ops are counted in `completed` but kept out
    op_ms: List[float] = field(default_factory=list)
    query_ms: Dict[Tuple[str, str], List[float]] = field(default_factory=dict)
    series: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, name: str, value: float) -> None:
        self.series.setdefault(name, []).append(value)

    def collect_garbage(self) -> None:
        """`gc.collect()` between passes; the collector stays enabled
        inside them.  Its time is the harness's, not the window's."""
        start = clock()
        gc.collect()
        self.housekeeping_s += clock() - start

    def close(self, start: float) -> None:
        self.elapsed_s = clock() - start - self.housekeeping_s

    def fail(self, what: str, detail: str = "") -> None:
        with self.lock:
            self.failed += 1
            shown = self.failed <= 5
        if shown:
            print(f"FAILED OP {what} {detail}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        """One oracle comparison; counts as an attempted op."""
        with self.lock:
            self.ops += 1
        if not ok:
            self.fail(what, "disagrees with the oracle")

    def timed(
        self,
        what: str,
        call: Callable[[], Sequence],
        expected_rows: Optional[int],
        steady: bool = True,
    ) -> Optional[float]:
        """Run one op; returns its latency, or None when it failed
        (exception, or a row count the oracle did not see)."""
        start = clock()
        try:
            rows = call()
        except Exception:  # op boundary: count it, keep the loop alive
            with self.lock:
                self.ops += 1
            self.fail(what, traceback.format_exc())
            return None
        took = ms_since(start)
        with self.lock:
            self.ops += 1
            self.completed += 1
            if steady:
                self.op_ms.append(took)
        if expected_rows is not None and len(rows) != expected_rows:
            self.fail(what, f"{len(rows)} rows, oracle has {expected_rows}")
            return None
        return took

    def run_pass(
        self, db: Database, workload: "Workload", mode: str,
        record: bool = True,
    ) -> Optional[float]:
        """One pass over the workload's queries on session `db`, rows
        decoded; None if any op failed (a pass with a hole in it is not
        a pass time).  `record=False` marks a cold pass: its ops are
        counted, but kept out of the per-query and steady-state
        latency samples."""
        start = clock()
        ok = True
        for name in workload.order:
            text = workload.queries[name]
            took = self.timed(
                f"{name}/{mode}",
                lambda: db.query(text, mode=mode).rows(),
                workload.expected.get((name, mode)),
                steady=record,
            )
            ok &= took is not None
            if took is not None and record:
                with self.lock:
                    self.query_ms.setdefault((name, mode), []).append(took)
        return ms_since(start) if ok else None

    def absorb(self, other: "Window") -> None:
        """Count another window's ops and failures into this one."""
        self.ops += other.ops
        self.failed += other.failed


# -- workloads -------------------------------------------------------------


class Workload:
    """One workload: `setup` (timed, repeatable), `verify` (untimed
    oracle pass), `measure` (the window), `teardown`."""

    name = ""
    dataset = "lubm"

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.queries = queries_of(self.dataset)
        self.order = sorted(self.queries)
        #: (query, mode) or ("step", i) -> row count the oracle pass saw
        self.expected: Dict = {}
        #: per-layer set-up readings (generate, matrices, store build,
        #: snapshot write); filled by every `setup`
        self.setup_layers: Dict[str, float] = {}

    def setup(self) -> float:
        """Build everything the window needs, warm-up included;
        returns the seconds it took (oracle work excluded)."""
        raise NotImplementedError

    def verify(self, window: Window) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, window: Window) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process holding the data."""
        return peak_rss_mb()

    def teardown(self) -> None:
        raise NotImplementedError


class InMemoryWorkload(Workload):
    """`Database.in_memory` over a generated graph; passes alternate
    pruned / full."""

    db: Optional[Database] = None

    def setup(self) -> float:
        start = clock()
        graph, self.setup_layers = generate_timed(
            self.dataset, self.scale, self.seed
        )
        self.db = Database.in_memory(graph)
        mark = clock()
        self.db.backend.triple_store()  # as above: the first query would
        self.setup_layers["store.build_ms"] = ms_since(mark)
        for mode in MODES:
            for name in self.order:
                self.db.query(self.queries[name], mode=mode).rows()
        return clock() - start

    def verify(self, window: Window) -> None:
        """Pruned answers contain the full answers, and equal them when
        the pattern is well-designed (Theorem 2)."""
        for name in self.order:
            text = self.queries[name]
            full = self.db.query(text, mode="full")
            pruned = self.db.query(text, mode="pruned")
            full_set, pruned_set = full.as_set(), pruned.as_set()
            exact = is_well_designed(parse_query(text).pattern)
            window.check(
                full_set <= pruned_set
                and (full_set == pruned_set or not exact),
                f"theorem2/{name}",
            )
            self.expected[(name, "full")] = len(full)
            self.expected[(name, "pruned")] = len(pruned)

    def measure(self, seconds: float, window: Window) -> None:
        start = clock()
        while clock() - start < seconds:
            for mode in MODES:
                window.collect_garbage()
                took = window.run_pass(self.db, self, mode)
                if took is not None:
                    window.add(f"{mode}_pass_ms", took)
        window.close(start)

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        gc.collect()


class LubmSolve(InMemoryWorkload):
    name = "lubm_solve"
    dataset = "lubm"


class DbpediaJoin(InMemoryWorkload):
    name = "dbpedia_join"
    dataset = "dbpedia"


# -- snapshot building (in a child process) ---------------------------------


def build_snapshot(seed: int, scale: Scale, path: str) -> Dict:
    """Generate LUBM, write its snapshot, and answer the oracle's
    questions from the in-memory graph.

    Runs in a child process (`python loads.py ...`, see the bottom of
    this file) so the process that later opens the snapshot never held
    the uncompressed matrices: its peak RSS is the snapshot session's
    own.  A plain child, waited for, and not a `multiprocessing` pool:
    a pool brings a resource-tracker process that outlives the run.
    """
    graph, layers = generate_timed("lubm", scale, seed)
    mark = clock()
    report = write_snapshot(graph, path)
    layers["storage.write_snapshot_ms"] = ms_since(mark)
    layers["storage.snapshot_bytes"] = report.file_bytes
    layers["storage.bytes_per_triple"] = report.file_bytes / report.n_triples

    oracle_start = clock()
    reference = Database.in_memory(graph)
    queries = queries_of("lubm")
    answers = {
        (name, mode): reference.query(text, mode=mode).as_set()
        for name, text in queries.items() for mode in MODES
    }
    by_label: Dict[str, List] = {}
    for triple in graph.triples():
        by_label.setdefault(triple[1], []).append(triple)
    rng = random.Random(seed)
    update_triples = []
    for label, _query in UPDATE_PLAN:
        candidates = sorted(by_label[label], key=repr)
        choice = rng.choice(candidates)
        while choice in update_triples:  # "name" appears twice
            choice = rng.choice(candidates)
        update_triples.append(choice)
    return {
        "layers": layers,
        "oracle_s": clock() - oracle_start,
        "answers": answers,
        "update_triples": update_triples,
    }


def child_env() -> Dict[str, str]:
    """This process's environment with `src/` on the module path."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class SnapshotWorkload(Workload):
    """Shared set-up of the two workloads that run over a snapshot."""

    dataset = "lubm"
    tmp: Optional[Path] = None
    path: Optional[Path] = None
    built: Optional[Dict] = None

    def build(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="snap-", dir=self.workdir))
        self.path = self.tmp / "lubm.snap"
        handoff = self.tmp / "built.pickle"
        scale = self.scale
        subprocess.run(  # waits; kills and reaps the child on the way out
            [
                sys.executable, __file__, str(self.seed),
                str(scale.lubm_universities), str(scale.dbpedia_scale),
                str(scale.dbpedia_padding), str(self.path), str(handoff),
            ],
            env=child_env(), stdin=subprocess.DEVNULL, check=True,
            timeout=600,
        )
        self.built = pickle.loads(handoff.read_bytes())
        handoff.unlink()
        self.setup_layers = dict(self.built["layers"])

    def drop_snapshot(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


class SnapshotEdit(SnapshotWorkload):
    """Cold open, cold and warm passes, and single-triple updates
    beside the reads, on `Database.edit(snapshot)`.

    The OS page cache is warm (the file was just written and read);
    "cold" means the session: no label promoted, no join index filled,
    no cached fixpoint.
    """

    name = "snapshot_edit"

    def setup(self) -> float:
        start = clock()
        self.build()
        with Database.edit(self.path) as db:
            for name in self.order:
                db.query(self.queries[name], mode="pruned").rows()
        return clock() - start - self.built["oracle_s"]

    def steps(self) -> List[Tuple[int, str, Tuple, str]]:
        """(index, verb, triple, query name) of the 12 update steps."""
        out = []
        for i, ((_label, query), triple) in enumerate(
            zip(UPDATE_PLAN, self.built["update_triples"])
        ):
            out.append((2 * i, "retract", triple, query))
            out.append((2 * i + 1, "add", triple, query))
        return out

    def verify(self, window: Window) -> None:
        answers = self.built["answers"]
        control_profile = ExecutionProfile(incremental=False)
        with Database.edit(self.path) as main, \
                Database.edit(self.path, profile=control_profile) as control:
            for name in self.order:
                for mode in MODES:
                    result = main.query(self.queries[name], mode=mode)
                    window.check(
                        result.as_set() == answers[(name, mode)],
                        f"snapshot-vs-memory/{name}/{mode}",
                    )
                    self.expected[(name, mode)] = len(result)
            for index, verb, triple, query in self.steps():
                applied = [
                    getattr(session, verb)([triple])
                    for session in (main, control)
                ]
                maintained = main.query(self.queries[query], mode="pruned")
                cold = control.query(self.queries[query], mode="pruned")
                ok = applied == [1, 1]
                ok &= maintained.as_set() == cold.as_set()
                if verb == "add":  # delta restored: the base answer again
                    ok &= maintained.as_set() == answers[(query, "pruned")]
                window.check(ok, f"overlay/{verb}/{triple[1]}/{query}")
                self.expected[("step", index)] = len(maintained)

    def update_step(
        self, db: Database, window: Window, index: int, verb: str,
        triple: Tuple, query: str,
    ) -> Optional[float]:
        write = db.retract if verb == "retract" else db.add
        text = self.queries[query]

        def step():
            write([triple])
            return db.query(text, mode="pruned").rows()

        return window.timed(
            f"update/{verb}/{triple[1]}/{query}", step,
            self.expected.get(("step", index)),
        )

    def iteration(self, window: Window) -> None:
        start = clock()
        db = Database.edit(self.path)
        try:
            window.add("storage.open_ms", ms_since(start))
            cold = window.run_pass(db, self, "pruned", record=False)
            if cold is not None:
                window.add("cold_pass_ms", ms_since(start))
            for _ in range(WARM_PRUNED_PASSES):
                window.collect_garbage()
                took = window.run_pass(db, self, "pruned")
                if took is not None:
                    window.add("pruned_pass_ms", took)
                    if cold is not None:
                        window.add("storage.cold_penalty_ms", cold - took)
            # The first full pass fills the lazy join indexes.
            window.run_pass(db, self, "full", record=False)
            for _ in range(WARM_FULL_PASSES):
                window.collect_garbage()
                took = window.run_pass(db, self, "full")
                if took is not None:
                    window.add("full_pass_ms", took)
            for index, verb, triple, query in self.steps():
                took = self.update_step(
                    db, window, index, verb, triple, query
                )
                if took is not None:
                    window.add("update_query_ms", took)
        finally:
            db.close()

    def measure(self, seconds: float, window: Window) -> None:
        start = clock()
        while clock() - start < seconds:
            self.iteration(window)
        window.close(start)

    def teardown(self) -> None:
        self.drop_snapshot()
        gc.collect()


@dataclass
class ClientTally:
    """What one client thread of `serve_mix` hands back."""

    completed: int = 0
    resubmissions: int = 0
    done_at: float = 0.0  # 0 until the thread has finished its last request


class ServeMix(SnapshotWorkload):
    """`python -m repro serve` as a child process; closed-loop client
    threads in this process, each a `Database.connect` session.

    A client's cycle is every LUBM query once pruned and once full, in
    an order it reshuffles (from `--seed`) every cycle.  Two clients
    walking one fixed order at nearly the same pace lock phase — one's
    heavy queries always meeting the other's light ones, or each
    other — and every latency then depends on the starting offsets
    (the per-query medians moved 2x between seeds).  The full-mode
    half gives the mix a majority of cheap requests: with the six
    pruned queries alone, three take ~3 ms and three >35 ms, and the
    median request falls in the gap between them.
    """

    name = "serve_mix"
    server: Optional[subprocess.Popen] = None
    url = ""

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        super().__init__(seed, scale, workdir)
        self.sessions: List[Database] = []
        self.n_clients = min(2, os.cpu_count() or 1)
        self.plan = [
            (name, mode) for name in self.order for mode in MODES
        ]

    def start_server(self) -> None:
        log = (self.tmp / "server.log").open("w")
        try:
            self.server = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", str(self.path),
                    "--host", "127.0.0.1", "--port", "0",
                    "--quantum", str(SERVE_QUANTUM_MS),
                ],
                stdout=subprocess.PIPE, stderr=log, env=child_env(),
                stdin=subprocess.DEVNULL, text=True,
            )
        finally:
            log.close()  # the child holds its own descriptor
        ready, _, _ = select.select([self.server.stdout], [], [], 60)
        line = self.server.stdout.readline() if ready else ""
        if " at http://" not in line:
            tail = (self.tmp / "server.log").read_text()[-2000:]
            self.stop_server()
            raise RuntimeError(f"server did not start: {line!r}\n{tail}")
        self.url = line.split(" at ")[1].split()[0]

    def stop_server(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        server.terminate()  # SIGTERM drains in-flight requests
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def setup(self) -> float:
        start = clock()
        self.build()
        self.start_server()
        self.sessions = [
            Database.connect(self.url) for _ in range(self.n_clients)
        ]
        for session in self.sessions:  # one warm-up cycle per client
            for name, mode in self.plan:
                session.query(self.queries[name], mode=mode).rows()
        return clock() - start - self.built["oracle_s"]

    def verify(self, window: Window) -> None:
        session = self.sessions[0]
        for name, mode in self.plan:
            result = session.query(self.queries[name], mode=mode)
            window.check(
                result.as_set() == self.built["answers"][(name, mode)],
                f"remote-vs-memory/{name}/{mode}",
            )
            self.expected[(name, mode)] = len(result)

    def client(
        self, index: int, window: Window, barrier: threading.Barrier,
        stop: threading.Event, tally: "ClientTally",
    ) -> None:
        session = self.sessions[index]
        rng = random.Random(self.seed * 1009 + index)
        barrier.wait()
        while not stop.is_set():
            cycle = {mode: 0.0 for mode in MODES}
            whole = True
            for name, mode in rng.sample(self.plan, len(self.plan)):
                if stop.is_set():
                    whole = False
                    break
                hops: List[int] = []

                def request():
                    result = session.query(self.queries[name], mode=mode)
                    hops.append(result.resubmissions)
                    return result.rows()

                took = window.timed(
                    f"remote/{name}/{mode}", request,
                    self.expected.get((name, mode)),
                )
                if took is None:
                    whole = False
                    continue
                tally.completed += 1
                tally.resubmissions += hops[0]
                cycle[mode] += took
                with window.lock:
                    window.query_ms.setdefault((name, mode), []).append(took)
            if whole:
                with window.lock:
                    for mode in MODES:
                        window.add(f"{mode}_pass_ms", cycle[mode])
        tally.done_at = clock()

    def measure(self, seconds: float, window: Window) -> None:
        barrier = threading.Barrier(self.n_clients + 1)
        stop = threading.Event()
        tallies = [ClientTally() for _ in range(self.n_clients)]
        threads = [
            threading.Thread(
                target=self.client, args=(i, window, barrier, stop, tally)
            )
            for i, tally in enumerate(tallies)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = clock()
        stop.wait(seconds)
        stop.set()
        for thread in threads:
            thread.join(timeout=120)
            if thread.is_alive():
                window.fail("client", "did not finish its last request")
        # Every client finishes the request it had in flight; the
        # window ends when the last of them does.
        window.elapsed_s = max(t.done_at or clock() for t in tallies) - start
        completed = [t.completed for t in tallies]
        window.counts["clients"] = self.n_clients
        window.counts["server_port"] = int(self.url.rsplit(":", 1)[1])
        window.counts["serve.fairness"] = (
            max(completed) / min(completed) if min(completed) else 0.0
        )
        window.counts["serve.resubmissions_per_query"] = (
            sum(t.resubmissions for t in tallies) / sum(completed)
            if sum(completed) else 0.0
        )

    def peak_rss_mb(self) -> float:
        return child_peak_rss_mb(self.server.pid)

    def teardown(self) -> None:
        for session in self.sessions:
            session.close()
        self.sessions = []
        self.stop_server()
        self.drop_snapshot()


WORKLOADS = {
    cls.name: cls for cls in (LubmSolve, DbpediaJoin, SnapshotEdit, ServeMix)
}


if __name__ == "__main__":  # the snapshot-building child of `build`
    seed, universities, dbpedia_scale, padding = map(int, sys.argv[1:5])
    built = build_snapshot(
        seed, Scale(universities, dbpedia_scale, padding), sys.argv[5]
    )
    Path(sys.argv[6]).write_bytes(pickle.dumps(built))
