"""The fault-injection harness, proven against the defenses it targets.

Acceptance bar of PR 6: ``repro db verify`` (and the reader behind it)
detects **100%** of injected snapshot corruptions; every injected
kernel fault degrades to a correct answer recorded in ``stats()``;
transient promotion I/O is absorbed by the retry policy.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Database, ExecutionProfile
from repro.errors import ReproError, SnapshotError
from repro.graph import example_movie_database
from repro.graph.io import save_ntriples
from repro.storage.reader import SnapshotReader
from repro.storage.writer import SnapshotWriter
from repro.testing import (
    corrupt_copy,
    corruption_cases,
    failing_promotions,
    kernel_fault,
    preempt_after,
    single_step,
)

QUERY = (
    "SELECT * WHERE { ?director directed ?movie . "
    "?director worked_with ?coworker . }"
)


@pytest.fixture
def snapshot(tmp_path):
    path = tmp_path / "movies.snap"
    SnapshotWriter(path).write(example_movie_database())
    return path


class TestCorruptionDetection:
    def test_every_class_has_a_case(self, snapshot):
        names = {c.name for c in corruption_cases(snapshot)}
        assert {
            "header", "nodes-dictionary", "predicates-dictionary",
            "array-table", "checksum-table", "truncation",
        } <= names
        for array in ("row_nodes", "indptr", "indices"):
            assert any(
                n.startswith("payload-") and n.endswith(array)
                for n in names
            )

    def test_all_injected_corruptions_detected(self, snapshot, tmp_path):
        """The 100% bar: every case either refuses to open or fails
        verify() naming the damaged section."""
        cases = corruption_cases(snapshot)
        assert cases
        for case in cases:
            target = corrupt_copy(
                snapshot, case, tmp_path / f"{case.name}.snap"
            )
            if case.detected_at == "open":
                with pytest.raises(SnapshotError):
                    SnapshotReader(target)
            else:
                with SnapshotReader(target) as reader:
                    report = reader.verify()
                assert not report.ok, case.name
                assert case.section in report.corrupt_sections(), (
                    case.name
                )
            target.unlink()

    def test_cases_require_current_format(self, snapshot, tmp_path):
        data = bytearray(snapshot.read_bytes())
        data[8:12] = (2).to_bytes(4, "little")  # a format-v2 header
        path = tmp_path / "v2.snap"
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="no longer readable"):
            corruption_cases(path)

    # the snapshot fixture is only ever read; each example writes its
    # flipped copy to a fresh target and removes it again
    @given(seed=st.integers(0, 10**6))
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_bit_flips_never_change_answers_silently(
        self, seed, snapshot, tmp_path
    ):
        """Any single bit flip anywhere in the file is either detected
        (open/verify/access) or provably harmless is not an option —
        the checksums cover every byte up to the final CRC word."""
        import random

        data = bytearray(snapshot.read_bytes())
        rng = random.Random(seed)
        position = rng.randrange(len(data))
        data[position] ^= 1 << rng.randrange(8)
        target = tmp_path / "flipped.snap"
        target.write_bytes(bytes(data))
        try:
            with SnapshotReader(target) as reader:
                report = reader.verify()
            assert not report.ok, (
                f"bit flip at byte {position} went undetected"
            )
        except SnapshotError:
            pass  # detected at open — also a pass
        finally:
            target.unlink()


class TestPromotionFaults:
    """Faults hit the first promotions of a fresh session; a clean
    session over the same file answers the query first."""

    def _session(self, snapshot):
        return Database.open(
            snapshot,
            profile=ExecutionProfile(pruning="pruned"),
            cached=False,
        )

    def _expected(self, snapshot):
        with self._session(snapshot) as db:
            return db.query(QUERY).as_set()

    def test_transient_faults_absorbed_by_retry(self, snapshot):
        expected = self._expected(snapshot)
        with self._session(snapshot) as db:
            with failing_promotions(failures=2) as faults:
                answer = db.query(QUERY).as_set()
            assert answer == expected
            assert faults.injected == 2
            assert db.stats().residency.promotion_retries >= 2

    def test_full_mode_fill_faults_absorbed_by_retry(self, snapshot):
        """A full-mode query fills its join indexes through the view's
        retried read, like a promotion."""
        full = ExecutionProfile(pruning="full")
        with Database.open(snapshot, profile=full, cached=False) as db:
            expected = db.query(QUERY).as_set()
        with Database.open(snapshot, profile=full, cached=False) as db:
            with failing_promotions(failures=1) as faults:
                answer = db.query(QUERY).as_set()
            assert answer == expected
            assert faults.injected == 1
            assert db.stats().residency.promotion_retries >= 1

    def test_exhausted_retries_propagate(self, snapshot):
        from repro.storage import RetryPolicy

        self._expected(snapshot)
        attempts = RetryPolicy().attempts
        with self._session(snapshot) as db:
            with failing_promotions(failures=attempts * 100):
                with pytest.raises(OSError):
                    db.query(QUERY)

    def test_corruption_is_never_retried(self, snapshot):
        from repro.errors import SnapshotCorruptError

        self._expected(snapshot)
        with self._session(snapshot) as db:
            with failing_promotions(
                failures=1,
                error=SnapshotCorruptError("poisoned", section="payload"),
            ) as faults:
                with pytest.raises(SnapshotCorruptError):
                    db.query(QUERY)
        assert faults.injected == 1  # first strike, no retry


class TestKernelFaults:
    @pytest.fixture
    def db(self, tmp_path):
        nt = tmp_path / "movies.nt"
        save_ntriples(example_movie_database(), nt)
        return Database.from_ntriples(
            nt,
            profile=ExecutionProfile(kernel="batched", pruning="pruned"),
        )

    def test_batched_fault_degrades_to_packed(self, db):
        expected = db.query(QUERY).as_set()
        with kernel_fault("batched"):
            answer = db.query(QUERY).as_set()
        assert answer == expected
        event = db.stats().degradations[-1]
        assert (event.from_kernel, event.to_kernel) == (
            "batched", "packed"
        )
        assert event.error_type == "RuntimeError"

    def test_double_fault_degrades_to_reference(self, db):
        expected = db.query(QUERY).as_set()
        with kernel_fault("batched"), kernel_fault("packed"):
            answer = db.query(QUERY).as_set()
        assert answer == expected
        chain = [
            (e.from_kernel, e.to_kernel)
            for e in db.stats().degradations
        ]
        assert ("batched", "packed") in chain
        assert ("packed", "reference") in chain

    def test_reference_fault_has_no_tier_below(self, db):
        with kernel_fault("batched"), kernel_fault("packed"), \
                kernel_fault("reference"):
            with pytest.raises(RuntimeError, match="injected"):
                db.query(QUERY)

    def test_stats_dict_includes_degradations(self, db):
        with kernel_fault("batched"):
            db.query(QUERY)
        stats = db.stats().to_dict()
        assert stats["degradations"]
        assert stats["degradations"][-1]["from_kernel"] == "batched"

    def test_core_default_does_not_degrade(self, tmp_path):
        """Without the façade's degrade_on_fault, the fault is real —
        kernel-equivalence suites must see failures, not fallbacks."""
        from repro.core import (
            SolverOptions, SystemOfInequalities, solve,
        )
        from repro.graph import figure4_database, figure4_pattern
        from repro.bitvec.kernel import use_kernel

        soi = SystemOfInequalities.from_pattern_graph(figure4_pattern())
        with kernel_fault("packed"), use_kernel("packed"):
            with pytest.raises(RuntimeError, match="injected"):
                solve(soi, figure4_database(), SolverOptions())

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            with kernel_fault("simd"):
                pass


class TestPreemptionHelpers:
    def test_single_step_is_zero_quantum(self):
        limits = single_step()
        assert limits.quantum_ms == 0.0
        assert limits.bounded

    def test_preempt_after_validates(self):
        assert preempt_after(3).preempt_after == 3
        with pytest.raises(ReproError):
            preempt_after(0)
