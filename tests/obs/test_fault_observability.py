"""Satellite bar: every injected fault surfaces as a span or metric.

For each `repro.testing` fault class — transient promotion failure,
kernel fault, snapshot corruption, forced preemption — the injected
event must be visible in the exported trace (and the matching counter
must advance).  The assertions are exact where the harness reports an
injection count: 100% of injected events appear, not "at least one".
"""

import json

import pytest

from repro.api import Database, ExecutionProfile, clear_open_cache
from repro.errors import SnapshotError
from repro.graph import example_movie_database
from repro.obs import Tracer, activate, registry
from repro.storage.reader import SnapshotReader
from repro.storage.tiered import RetryPolicy, TieredGraphView
from repro.storage.writer import SnapshotWriter
from repro.testing import (
    corrupt_copy,
    corruption_cases,
    failing_promotions,
    kernel_fault,
)

QUERY = (
    "SELECT * WHERE { ?director directed ?movie . "
    "?director worked_with ?coworker . }"
)


@pytest.fixture
def snapshot(tmp_path):
    path = tmp_path / "movies.snap"
    SnapshotWriter(path).write(
        example_movie_database()
    )
    return path


def _exported_names(tracer):
    return [
        json.loads(line)["name"]
        for line in tracer.to_jsonl().splitlines()
    ]


class TestPromotionRetryObservability:
    def test_every_injected_failure_becomes_a_retry_event(self, snapshot):
        n_failures = 3
        tracer = Tracer()
        before = registry().counter("promotion_retries_total").value
        view = TieredGraphView(
            snapshot,
            retry_policy=RetryPolicy(
                attempts=n_failures + 1, sleep=lambda _: None
            ),
        )
        try:
            with failing_promotions(n_failures) as faults, \
                    activate(tracer):
                label = sorted(view.labels)[0]
                view.promote(label)
            assert faults.injected == n_failures
        finally:
            view.close()
        retries = [s for s in tracer.spans if s.name == "retry"]
        assert len(retries) == faults.injected
        assert _exported_names(tracer).count("retry") == faults.injected
        assert registry().counter(
            "promotion_retries_total"
        ).value == before + faults.injected

    def test_retry_events_nest_under_the_promotion_span(self, snapshot):
        tracer = Tracer()
        view = TieredGraphView(
            snapshot,
            retry_policy=RetryPolicy(attempts=2, sleep=lambda _: None),
        )
        try:
            label = sorted(view.labels)[0]
            assert not view.is_resident(label)  # a fresh view: cold
            with failing_promotions(1), activate(tracer):
                view.promote(label)
        finally:
            view.close()
        promotion, = [s for s in tracer.spans if s.name == "promotion"]
        retry, = [s for s in tracer.spans if s.name == "retry"]
        assert retry.parent_id == promotion.span_id
        assert promotion.attributes["label"] == label
        assert promotion.attributes["bytes"] > 0


class TestKernelFaultObservability:
    def test_degradation_becomes_a_span_and_a_counter(self, movie_db):
        session = Database.in_memory(
            movie_db, profile=ExecutionProfile(kernel="batched")
        )
        before = registry().counter("kernel_degradations_total").value
        with kernel_fault("batched"):
            result = session.query(QUERY, mode="pruned", trace=True)
        assert result.complete
        degrades = result.trace.find("degrade")
        assert degrades, "injected kernel fault left no degrade span"
        assert degrades[0].attributes["from_kernel"] == "batched"
        assert degrades[0].attributes["to_kernel"] == "packed"
        assert "degrade" in _exported_names(result.trace)
        assert registry().counter(
            "kernel_degradations_total"
        ).value > before
        # The façade's own record (stats) agrees with the trace.
        assert session.stats().degradations


class TestCorruptionObservability:
    def test_every_injected_corruption_becomes_an_event(
        self, snapshot, tmp_path
    ):
        cases = corruption_cases(snapshot)
        assert cases
        clear_open_cache()
        for case in cases:
            target = corrupt_copy(
                snapshot, case, tmp_path / f"{case.name}.snap"
            )
            tracer = Tracer()
            before = registry().counter(
                "snapshot_corruptions_total"
            ).value
            with activate(tracer):
                if case.detected_at == "open":
                    with pytest.raises(SnapshotError):
                        SnapshotReader(target)
                else:
                    with SnapshotReader(target) as reader:
                        assert not reader.verify().ok
            corruption_events = [
                s for s in tracer.spans if s.name == "corruption"
            ]
            assert corruption_events, case.name
            assert any(
                case.section in str(s.attributes.get("section", ""))
                or case.section in str(s.attributes.get("message", ""))
                for s in corruption_events
            ), case.name
            assert registry().counter(
                "snapshot_corruptions_total"
            ).value > before, case.name
            assert "corruption" in _exported_names(tracer)
            target.unlink()


class TestPreemptionObservability:
    def test_every_suspension_leaves_a_checkpoint_event(self, movie_db):
        session = Database.in_memory(
            movie_db,
            profile=ExecutionProfile(pruning="pruned", time_quantum_ms=0),
        )
        before = registry().counter("solver_checkpoints_total").value
        result = session.query(QUERY, trace=True)
        suspensions = 0
        checkpoint_spans = 0
        while not result.complete:
            suspensions += 1
            checkpoints = result.trace.find("checkpoint")
            assert checkpoints, "suspended trace carries no checkpoint"
            checkpoint_spans += len(checkpoints)
            assert "checkpoint" in _exported_names(result.trace)
            result = session.resume(result, trace=True)
        assert suspensions >= 1
        assert registry().counter(
            "solver_checkpoints_total"
        ).value >= before + suspensions
