"""Fault-injection harness: break things on purpose, deterministically.

Three families of faults, mirroring the failure domains the library
defends against:

* **Snapshot corruption** — :func:`corruption_cases` enumerates one
  byte-flip (or truncation) per integrity class of the snapshot
  format: header, both term dictionaries, the array table, every CSR
  array, the checksum table itself, and truncation.  Each case says
  where detection must happen (``"open"`` for eagerly-verified
  metadata, ``"verify"`` for lazily-checked arrays), so a test can
  assert the *promise*, not just "some error somewhere".

* **Transient promotion I/O** — :func:`failing_promotions` patches the
  snapshot reader's array accessor to raise :class:`OSError` a fixed
  number of times, exercising the tiered store's retry-with-backoff
  path without touching a real filesystem fault.

* **Kernel faults** — :func:`kernel_fault` makes one product kernel
  blow up (only while it is the active kernel), exercising the
  batched → packed → reference degradation chain end to end.

Everything here is deterministic: no randomness, no timing dependence
— a failing seed reproduces byte-for-byte.
"""

from __future__ import annotations

import contextlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Union

from repro.core.checkpoint import ExecutionLimits

# -- snapshot corruption ----------------------------------------------------


@dataclass(frozen=True)
class CorruptionCase:
    """One reproducible way to damage a snapshot file.

    ``mutate`` transforms the pristine file bytes into the damaged
    ones.  ``detected_at`` is the earliest point detection is
    guaranteed: ``"open"`` (eager metadata verification raises before
    a reader exists) or ``"verify"`` (arrays are checked lazily; a
    full :meth:`~repro.storage.reader.SnapshotReader.verify` pass, or
    the first access, flags them).
    """

    name: str
    section: str
    detected_at: str  # "open" or "verify"
    mutate: Callable[[bytes], bytes]

    def apply(self, data: bytes) -> bytes:
        damaged = self.mutate(data)
        if damaged == data:
            raise ValueError(
                f"corruption case {self.name!r} left the file unchanged"
            )
        return damaged


def _flip(offset: int) -> Callable[[bytes], bytes]:
    def mutate(data: bytes) -> bytes:
        body = bytearray(data)
        body[offset] ^= 0xFF
        return bytes(body)

    return mutate


def corruption_cases(path: Union[str, Path]) -> List[CorruptionCase]:
    """Every corruption class of the snapshot at ``path``, one case
    each (plus one per non-empty CSR array).

    The file must be pristine — section ranges are read through a
    throwaway reader before any damage is planned.
    """
    from repro.storage.reader import SnapshotReader, _META_SECTIONS

    path = Path(path)
    cases: List[CorruptionCase] = []
    with SnapshotReader(path) as reader:
        file_bytes = path.stat().st_size
        meta = {
            name: (start, length)
            for name, start, length in reader._meta_ranges()
        }
        for name in _META_SECTIONS:
            start, length = meta[name]
            cases.append(CorruptionCase(
                name=name.replace(" ", "-"),
                section=name,
                detected_at="open",
                mutate=_flip(start + length // 2),
            ))
        for label, direction in sorted(reader._blocks):
            for section, start, length, _ in reader._array_ranges(
                label, direction
            ):
                if length == 0:
                    continue
                cases.append(CorruptionCase(
                    name=section.replace(" ", "-").replace("/", "-"),
                    section=section,
                    detected_at="verify",
                    mutate=_flip(start + length // 2),
                ))
        table_off = reader._header.checksum_table_off
        cases.append(CorruptionCase(
            name="checksum-table",
            section="checksum table",
            detected_at="open",
            mutate=_flip(table_off + (file_bytes - table_off) // 2),
        ))
    cases.append(CorruptionCase(
        name="truncation",
        section="checksum table",
        detected_at="open",
        mutate=lambda data: data[: len(data) - max(1, len(data) // 4)],
    ))
    return cases


def corrupt_copy(
    source: Union[str, Path],
    case: CorruptionCase,
    target: Union[str, Path],
) -> Path:
    """Write a damaged copy of ``source`` at ``target`` and return it."""
    source, target = Path(source), Path(target)
    target.write_bytes(case.apply(source.read_bytes()))
    shutil.copystat(source, target)
    return target


# -- transient promotion I/O ------------------------------------------------


class PromotionFaults:
    """Mutable state of one :func:`failing_promotions` window."""

    def __init__(self, failures: int):
        self.remaining = failures
        self.injected = 0

    def should_fail(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        self.injected += 1
        return True


@contextlib.contextmanager
def failing_promotions(
    failures: int = 1,
    error: Optional[Exception] = None,
) -> Iterator[PromotionFaults]:
    """Make the next ``failures`` snapshot array reads raise OSError.

    Patches :class:`~repro.storage.reader.SnapshotReader`'s ``csr``,
    the one payload entry point: a label's promotion and a join-store
    fill both read through it under the tiered view's retry policy.
    Yields a :class:`PromotionFaults` whose ``injected`` counter tells
    how many faults actually fired — a test can assert it matches the
    view's ``promotion_retries``.
    """
    from repro.storage.reader import SnapshotReader

    state = PromotionFaults(failures)
    original = SnapshotReader.csr

    def patched(self, *call_args, **call_kwargs):
        if state.should_fail():
            raise error if error is not None else OSError(
                "injected transient promotion failure"
            )
        return original(self, *call_args, **call_kwargs)

    SnapshotReader.csr = patched
    try:
        yield state
    finally:
        SnapshotReader.csr = original


# -- kernel faults ----------------------------------------------------------


@contextlib.contextmanager
def kernel_fault(
    kernel: str,
    error: Optional[Exception] = None,
) -> Iterator[None]:
    """Make one product kernel fail while it is the active kernel.

    * ``"batched"`` — the hazard-flush of the batched round engine
      raises;
    * ``"packed"`` / ``"reference"`` — the label-matrix product
      raises, but only when :func:`~repro.bitvec.kernel.active_kernel`
      matches ``kernel`` (both kernels share the entry point, so the
      injected fault follows the degradation chain instead of
      poisoning every tier at once).

    With ``degrade_on_fault`` enabled the solver falls through to the
    next tier and still answers; a ``"reference"`` fault has no tier
    below it and propagates.
    """
    from repro.bitvec.kernel import KERNELS, active_kernel

    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from {KERNELS}"
        )

    def boom():
        raise error if error is not None else RuntimeError(
            f"injected {kernel} kernel fault"
        )

    if kernel == "batched":
        from repro.core import batched as batched_module

        original = batched_module._Batch.flush

        def patched_flush(self, *call_args, **call_kwargs):
            boom()

        batched_module._Batch.flush = patched_flush
        try:
            yield
        finally:
            batched_module._Batch.flush = original
    else:
        from repro.bitvec.matrix import LabelMatrixPair

        original = LabelMatrixPair.product

        def patched_product(self, *call_args, **call_kwargs):
            if active_kernel() == kernel:
                boom()
            return original(self, *call_args, **call_kwargs)

        LabelMatrixPair.product = patched_product
        try:
            yield
        finally:
            LabelMatrixPair.product = original


# -- forced preemption ------------------------------------------------------


def single_step() -> ExecutionLimits:
    """Limits that suspend after every single solver evaluation — the
    densest possible preemption schedule (``quantum_ms=0``)."""
    return ExecutionLimits(quantum_ms=0.0)


def preempt_after(evaluations: int) -> ExecutionLimits:
    """Limits that suspend after exactly ``evaluations`` solver
    evaluations — wall-clock-free, so interleavings are reproducible
    in tests regardless of machine speed."""
    return ExecutionLimits(preempt_after=evaluations)
