"""Batched round evaluation for the SOI solver (the ``batched`` kernel).

The packed kernel already turned each Eq.-(9) product into a handful
of NumPy calls, but the solver still dispatched them one inequality at
a time — for the small B-queries a round of a dozen inequalities costs
a dozen gathers, a dozen reduces, a dozen popcounts of per-call
dispatch overhead.  This module evaluates rounds in **batches**
against a :class:`~repro.bitvec.kernel.BatchedBlockSet`, the
concatenation of every touched (label, direction) matrix's packed
rows:

* all row-wise products of a batch become one fancy-index gather into
  the shared block plus one ``np.bitwise_or.reduceat`` over the
  per-inequality segments;
* all column-wise products become one gather plus one
  any-intersection test ``gathered.any(axis=1)``, each segment ANDed
  against its source vector by broadcasting (no materialized repeat).

**Hazard flushing** keeps the evaluation order observably identical
to the sequential kernels: inequalities are gathered in the static
rank order, and the pending batch is executed the moment the next
inequality reads or writes a variable some pending product is about
to write.  Independent inequalities (the common case — a round's
inequalities mostly touch disjoint variables) thus share one kernel
dispatch, while dependent chains see exactly the values the
sequential Gauss-Seidel loop would have produced.  The fixpoint, the
per-variable rows, and the work counters (rounds, evaluations,
updates, bits removed) all match the packed kernel bit for bit —
property tests assert it.

Nothing in a round mutates a candidate row in place (updates rebind
``rows[target]`` to a fresh bitset), so the source-vector references
captured by deferred column products always see the value the
sequential order would have read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.bitvec import Bitset
from repro.bitvec.kernel import BatchedBlockSet
from repro.core.soi import (
    CopyInequality,
    FORWARD,
    SystemOfInequalities,
)


class _Batch:
    """Deferred products of one hazard-free run of inequalities.

    Targets are pairwise distinct by construction (an inequality
    hitting a pending target forces a flush first), so applying a
    batch never has to reconcile two products of the same variable.
    """

    __slots__ = (
        "n", "blocks", "targets",
        "row_targets", "row_positions",
        "col_targets", "col_candidates", "col_positions", "col_vectors",
    )

    def __init__(self, n: int, blocks: BatchedBlockSet):
        self.n = n
        self.blocks = blocks
        self.targets: Set[int] = set()
        self.row_targets: List[int] = []
        self.row_positions: List[np.ndarray] = []
        self.col_targets: List[int] = []
        self.col_candidates: List[np.ndarray] = []
        self.col_positions: List[np.ndarray] = []
        self.col_vectors: List[np.ndarray] = []

    def add_row(self, target: int, positions: np.ndarray) -> None:
        self.targets.add(target)
        self.row_targets.append(target)
        self.row_positions.append(positions)

    def add_col(
        self, target: int, candidates: np.ndarray,
        positions: np.ndarray, vector: np.ndarray,
    ) -> None:
        self.targets.add(target)
        self.col_targets.append(target)
        self.col_candidates.append(candidates)
        self.col_positions.append(positions)
        self.col_vectors.append(vector)

    def flush(self, rows: Dict[int, Bitset], report, updated: Set[int]):
        """Compute every pending product, apply the shrinks, reset."""
        if not self.targets:
            return
        # (target, result words); result arrays are batch-owned, so the
        # apply pass below may AND into them in place.
        results = self._compute_serial()

        n = self.n
        for target, words in results:
            current = rows[target]
            before = current.count()
            np.bitwise_and(words, current.words, out=words)
            after = int(np.bitwise_count(words).sum())
            if after == before:
                continue  # ANDed result kept every bit: no change
            shrunk = Bitset._wrap(n, words)
            shrunk._count = after
            rows[target] = shrunk
            report.updates += 1
            report.bits_removed += before - after
            updated.add(target)

        self.targets.clear()
        self.row_targets.clear()
        self.row_positions.clear()
        self.col_targets.clear()
        self.col_candidates.clear()
        self.col_positions.clear()
        self.col_vectors.clear()

    def _compute_serial(self) -> List:
        """Compute every pending product as ``(target, words)`` pairs,
        rows first, then columns."""
        results: List = []
        block = self.blocks.block
        n = self.n

        positions = self.row_positions
        if positions:
            if len(positions) == 1:
                results.append((
                    self.row_targets[0],
                    np.bitwise_or.reduce(block[positions[0]], axis=0),
                ))
            elif len(positions) <= 4:
                # Few segments: one shared gather, then per-segment
                # reduces over views (ufunc.reduceat's generic inner
                # loop costs more than this many plain reduces).
                gathered = block[np.concatenate(positions)]
                start = 0
                for target, chunk in zip(self.row_targets, positions):
                    stop = start + chunk.size
                    results.append((
                        target,
                        np.bitwise_or.reduce(
                            gathered[start:stop], axis=0
                        ),
                    ))
                    start = stop
            else:
                starts = [0]
                total = 0
                for chunk in positions[:-1]:
                    total += chunk.size
                    starts.append(total)
                reduced = np.bitwise_or.reduceat(
                    block[np.concatenate(positions)], starts, axis=0
                )
                results.extend(zip(self.row_targets, reduced))

        candidates = self.col_candidates
        if candidates:
            if len(candidates) == 1:
                gathered = block[self.col_positions[0]]
                hits = np.bitwise_and(
                    gathered, self.col_vectors[0], out=gathered
                ).any(axis=1)
                results.append((
                    self.col_targets[0],
                    Bitset.from_indices(n, candidates[0][hits]).words,
                ))
            else:
                gathered = block[np.concatenate(self.col_positions)]
                # AND each segment against its source vector by
                # broadcasting over a view (materializing the vectors
                # with np.repeat costs a full extra block write);
                # consecutive items sharing a source coalesce into one
                # call.
                start = span = 0
                vectors = self.col_vectors
                active = vectors[0]
                for members, vector in zip(candidates, vectors):
                    if vector is not active:
                        stop = start + span
                        np.bitwise_and(
                            gathered[start:stop], active,
                            out=gathered[start:stop],
                        )
                        start, span, active = stop, 0, vector
                    span += members.size
                np.bitwise_and(
                    gathered[start:], active, out=gathered[start:]
                )
                hits = gathered.any(axis=1)
                bounds = []
                total = 0
                for members in candidates[:-1]:
                    total += members.size
                    bounds.append(total)
                for target, members, segment in zip(
                    self.col_targets, candidates, np.split(hits, bounds)
                ):
                    results.append((
                        target,
                        Bitset.from_indices(n, members[segment]).words,
                    ))

        return results


def run_batched(
    soi: SystemOfInequalities,
    matrices,
    rows: Dict[int, Bitset],
    inequalities: List,
    by_source: Dict[int, List[int]],
    rank: Dict[int, int],
    product: str,
    report,
    n: int,
    blocks: BatchedBlockSet,
    timer=None,
    resume_queue: Optional[List[int]] = None,
    resume_updated: Optional[Set[int]] = None,
) -> Optional[Tuple[List[int], Set[int]]]:
    """Run the static-ordering fixpoint loop with batched rounds.

    Mutates ``rows`` to the largest solution and fills ``report``,
    mirroring the sequential loop in :func:`repro.core.solver.solve`
    (identical trajectory, identical counters).

    ``timer`` (a :class:`~repro.core.checkpoint.LimitTimer`) makes the
    run preemptable: at the top of each iteration the pending batch is
    force-flushed — flushes are trajectory-neutral, rows rebind and
    never mutate in place — and ``(remaining queue, updated targets)``
    is returned for the caller to capture into a checkpoint.  Returns
    ``None`` on reaching the fixpoint.  ``resume_queue`` /
    ``resume_updated`` continue a suspended round (an empty resumed
    queue closes the round, computing the next one from the set).
    """
    find = soi.find
    source_of = [find(ineq.source) for ineq in inequalities]
    target_of = [find(ineq.target) for ineq in inequalities]
    is_copy = [isinstance(ineq, CopyInequality) for ineq in inequalities]

    batch = _Batch(n, blocks)
    entry = blocks.entry
    flush = batch.flush
    add_row = batch.add_row
    add_col = batch.add_col
    pending = batch.targets  # stable identity: flush() clears in place
    get_pair = matrices.get
    if resume_queue is not None:
        queue = list(resume_queue)
        updated: Set[int] = set(resume_updated or ())
        open_round = True  # continue the suspended round, no increment
    else:
        queue = sorted(range(len(inequalities)), key=rank.__getitem__)
        updated = set()
        open_round = False
    while queue or open_round:
        if not open_round:
            report.rounds += 1
            updated = set()
        open_round = False
        evaluations = 0
        for position, idx in enumerate(queue):
            if timer is not None:
                timer.check_deadline()
                if timer.should_preempt():
                    # Land every deferred product so the checkpoint
                    # rows sit exactly on the sequential trajectory.
                    flush(rows, report, updated)
                    report.evaluations += evaluations
                    return queue[position:], updated
            target = target_of[idx]
            source = source_of[idx]
            if pending and (target in pending or source in pending):
                # Read-after-write or write-after-write hazard: land
                # the pending products before touching the variable.
                flush(rows, report, updated)
            evaluations += 1
            if timer is not None:
                timer.note_work()
            target_row = rows[target]
            before = target_row.count()
            if before == 0:
                continue
            source_row = rows[source]
            if is_copy[idx]:
                tightened = target_row & source_row
                after = tightened.count()
                if after != before:
                    rows[target] = tightened
                    report.updates += 1
                    report.bits_removed += before - after
                    updated.add(target)
                continue
            ineq = inequalities[idx]
            source_count = source_row.count()
            pair = get_pair(ineq.label)
            if pair is None or source_count == 0:
                # Absent label or empty source: the product is the
                # zero vector either way — no kernel work needed.
                rows[target] = Bitset.zeros(n)
                report.updates += 1
                report.bits_removed += before
                updated.add(target)
                continue
            forward = ineq.matrix == FORWARD
            matrix = pair.forward if forward else pair.backward
            dual = pair.backward if forward else pair.forward
            summary = matrix.summary
            if (
                source_count >= summary.count()
                and summary.issubset(source_row)
            ):
                # Saturated source: the vector covers every indexed
                # row, so the product is exactly the OR of *all* rows
                # — which is the dual direction's Eq.-(13) summary.
                # One subset test + one AND replace gather and reduce
                # (round 1 hits this for every degree-one pattern
                # variable: summary initialization made them equal to
                # this very summary).
                tightened = target_row & dual.summary
                after = tightened.count()
                if after != before:
                    rows[target] = tightened
                    report.updates += 1
                    report.bits_removed += before - after
                    updated.add(target)
                continue
            strategy = product
            if strategy == "auto":
                strategy = "column" if before < source_count else "row"
            if strategy == "row":
                where = entry(
                    ineq.label, "forward" if forward else "backward",
                    matrix,
                )
                if source_count < matrix._row_nodes.size:
                    # Sparse source: gather via its cached set bits.
                    positions = where.row_index[source_row.iter_ones()]
                    positions = positions[positions >= 0]
                else:
                    # Dense source: test each indexed node's bit
                    # directly (the packed block's dense-vector row test).
                    selected = (
                        source_row.words[matrix._word_idx]
                        >> matrix._bit_shift
                    ) & np.uint64(1)
                    positions = selected.nonzero()[0]
                if positions.size == 0:
                    rows[target] = Bitset.zeros(n)
                    report.updates += 1
                    report.bits_removed += before
                    updated.add(target)
                    continue
                if where.offset:
                    positions += where.offset
                add_row(target, positions)
            else:
                # Column-wise: keep candidate j of the target iff the
                # *dual* matrix's row j intersects the source vector.
                where = entry(
                    ineq.label, "backward" if forward else "forward",
                    dual,
                )
                candidates = target_row.iter_ones()
                positions = where.row_index[candidates]
                valid = positions >= 0
                candidates = candidates[valid]
                if candidates.size == 0:
                    rows[target] = Bitset.zeros(n)
                    report.updates += 1
                    report.bits_removed += before
                    updated.add(target)
                    continue
                positions = positions[valid]
                if where.offset:
                    positions += where.offset
                add_col(target, candidates, positions, source_row.words)
        flush(rows, report, updated)
        report.evaluations += evaluations
        pending_next: Set[int] = set()
        for target in updated:
            pending_next.update(by_source.get(target, ()))
        queue = sorted(pending_next, key=rank.__getitem__)
    return None
