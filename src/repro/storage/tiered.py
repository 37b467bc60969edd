"""Tiered graph view: snapshot labels promoted lazily, at most once.

:class:`TieredGraphView` opens a snapshot and satisfies the adjacency
interface the SOI solver and the pruning stage consume from
:class:`~repro.graph.graph.Graph`:

* ``n_nodes`` / ``n_edges`` / ``labels`` / ``node_name`` /
  ``node_index`` / ``has_node`` / ``nodes_bitset``
* ``matrices()`` returning a mapping ``label -> LabelMatrixPair``

The mapping is where the tiering lives.  Every label starts *cold*:
nothing but its bytes in the file.  The first ``matrices().get(label)``
**promotes** it: both directions' CSR arrays are checked
(:meth:`SnapshotReader.csr`) and adopted as zero-copy views by
:meth:`AdjacencyMatrix.from_csr` — no decode, no copy.  A promoted
label stays resident for the life of the view; every later lookup is
a dict hit.

Residency is reported, not bounded.  :meth:`residency` counts every
array a resident pair holds (the adopted views and anything a kernel
derives from them) and so exposes *which* labels became resident —
the quantity behind the paper's 35 GB fully dense vs 23 GB
mixed-residency comparison (Sect. 3.3).  The adopted arrays are
read-only views over the snapshot's mmap, so their bytes live in the
OS page cache, which already evicts them under memory pressure.

The view is also the join store's column source
(:class:`~repro.store.triple_store.TripleStore`): ``label_counts``
answers from the array table, and ``label_csr`` hands out one label
direction's CSR views as a promotion reads them — checked, under the
view's :class:`RetryPolicy` — without making a cold label resident.

A view is read-only; it intentionally does **not** implement the
mutation or set-based traversal surface of :class:`Graph` (``add_edge``,
``successors`` over Python sets, ...).  Materialize via
:meth:`to_graph_database` when that surface is needed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.bitvec import CSR, AdjacencyMatrix, Bitset, LabelMatrixPair
from repro.errors import GraphError, SnapshotError
from repro.obs.logs import get_logger
from repro.obs.metrics import registry
from repro.obs.trace import current_tracer
from repro.storage.reader import SnapshotReader

logger = get_logger("storage.tiered")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient promotion I/O.

    Promotions read mmap'd snapshot bytes; on network filesystems and
    flaky disks those reads can fail *transiently* (``OSError`` /
    ``EIO``-style).  A promotion wrapped in this policy retries up to
    ``attempts`` total tries with ``base_delay * multiplier**k``
    sleeps, capped at ``max_delay``.  Only :class:`OSError` is
    retryable — a :class:`~repro.errors.SnapshotCorruptError` is a
    *permanent* verdict about the bytes and propagates immediately.
    ``sleep`` is injectable so tests run without real delays.
    """

    attempts: int = 3
    base_delay: float = 0.01
    max_delay: float = 0.5
    multiplier: float = 4.0
    sleep: Callable[[float], None] = field(default=time.sleep)

    def __post_init__(self):
        if self.attempts < 1:
            raise SnapshotError(
                f"retry attempts must be >= 1, got {self.attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise SnapshotError("retry delays must be non-negative")
        if self.multiplier < 1:
            raise SnapshotError(
                f"retry multiplier must be >= 1, got {self.multiplier}"
            )


@dataclass
class ResidencyReport:
    """How much of an open snapshot is materialized in memory."""

    n_labels: int
    cold_labels: int         # not resident (on-disk arrays only)
    promotions: int          # labels adopted so far (once each)
    promoted_labels: Tuple[str, ...]
    resident_bytes: int      # every array resident pairs cache
    on_disk_bytes: int       # snapshot file size
    resident_labels: int = 0     # labels currently materialized
    promotion_retries: int = 0   # transient I/O errors retried away

    @property
    def resident_ratio(self) -> float:
        if self.on_disk_bytes == 0:
            return 0.0
        return self.resident_bytes / self.on_disk_bytes


class TieredMatrices:
    """Mapping ``label -> LabelMatrixPair`` with promote-on-first-touch.

    Lookups of resident labels are dict hits; the first lookup of a
    cold label materializes it.  Iteration (``keys`` / ``len`` /
    ``in``) never promotes.
    """

    def __init__(self, view: "TieredGraphView"):
        self._view = view

    def __getitem__(self, label: str) -> LabelMatrixPair:
        pair = self._view._pair(label)
        if pair is None:
            raise KeyError(label)
        return pair

    def get(self, label: str, default=None):
        pair = self._view._pair(label)
        return default if pair is None else pair

    def __contains__(self, label: str) -> bool:
        return label in self._view._label_set

    def __iter__(self) -> Iterator[str]:
        return iter(self._view._labels)

    def __len__(self) -> int:
        return len(self._view._labels)

    def keys(self) -> Iterator[str]:
        return iter(self._view._labels)

    def values(self) -> Iterator[LabelMatrixPair]:
        for label in self._view._labels:
            yield self[label]

    def items(self) -> Iterator[Tuple[str, LabelMatrixPair]]:
        for label in self._view._labels:
            yield (label, self[label])


class TieredGraphView:
    """A graph database served from a snapshot, labels promoted on
    first touch."""

    def __init__(
        self,
        source: Union[str, Path, SnapshotReader],
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if isinstance(source, SnapshotReader):
            self.reader = source
        else:
            self.reader = SnapshotReader(source)
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self._promotion_retries = 0
        reader = self.reader
        self._names: List[Hashable] = reader.node_terms()
        self._index: Dict[Hashable, int] = {
            name: i for i, name in enumerate(self._names)
        }
        self._labels: List[str] = reader.labels()
        self._label_set: Set[str] = set(self._labels)
        #: Resident pairs in promotion order.
        self._pairs: Dict[str, LabelMatrixPair] = {}
        self._matrices = TieredMatrices(self)
        self._batched = None

    # -- tier mechanics ---------------------------------------------------

    def _pair(self, label: str) -> LabelMatrixPair | None:
        pair = self._pairs.get(label)
        if pair is not None:
            return pair
        if label not in self._label_set:
            return None
        return self._materialize(label)

    def _with_retries(self, operation):
        """Run one promotion read under the view's retry policy.

        Only ``OSError`` retries (transient I/O); corruption verdicts
        (:class:`~repro.errors.SnapshotCorruptError`) and every other
        typed failure propagate on the first raise.
        """
        policy = self.retry_policy
        delay = policy.base_delay
        for attempt in range(policy.attempts):
            try:
                return operation()
            except OSError as error:
                if attempt + 1 >= policy.attempts:
                    raise
                self._promotion_retries += 1
                registry().counter("promotion_retries_total").inc()
                tracer = current_tracer()
                if tracer.enabled:
                    tracer.event(
                        "retry", attempt=attempt + 1,
                        error_type=type(error).__name__,
                    )
                logger.warning(
                    "transient promotion I/O error (attempt %d/%d): %s",
                    attempt + 1, policy.attempts, error,
                )
                policy.sleep(min(delay, policy.max_delay))
                delay *= policy.multiplier

    def _materialize(self, label: str) -> LabelMatrixPair:
        """Build and keep the resident pair for a cold label."""
        tracer = current_tracer()
        if not tracer.enabled:
            return self._materialize_inner(label)
        with tracer.span("promotion", label=label) as span:
            pair = self._materialize_inner(label)
            # The bytes adopted now; arrays a kernel derives later add
            # to resident_bytes().
            span.set_attribute("bytes", pair.nbytes)
            return pair

    def _materialize_inner(self, label: str) -> LabelMatrixPair:
        reader = self.reader
        n = reader.n_nodes
        pair = LabelMatrixPair(
            n,
            AdjacencyMatrix.from_csr(
                n, *self._with_retries(lambda: reader.csr(label, "forward"))
            ),
            AdjacencyMatrix.from_csr(
                n, *self._with_retries(lambda: reader.csr(label, "backward"))
            ),
        )
        registry().counter("promotions_total").inc()
        self._pairs[label] = pair
        return pair

    def promote(self, label: str) -> LabelMatrixPair:
        """Materialize a label by adopting its CSR views (idempotent)."""
        pair = self._pair(label)
        if pair is None:
            raise GraphError(f"unknown label: {label!r}")
        return pair

    def promote_all(self) -> None:
        """Force-materialize every cold label (benchmarks, warm-up)."""
        for label in self._labels:
            self._pair(label)

    @property
    def promotions(self) -> int:
        return len(self._pairs)

    @property
    def promotion_retries(self) -> int:
        """Transient promotion I/O errors absorbed by backoff."""
        return self._promotion_retries

    def is_resident(self, label: str) -> bool:
        return label in self._pairs

    def resident_bytes(self) -> int:
        """Bytes of every array the resident pairs hold — adopted CSR
        views and whatever kernels derived from them."""
        return sum(
            pair.nbytes for pair in self._pairs.values()
        )

    def residency(self) -> ResidencyReport:
        return ResidencyReport(
            n_labels=len(self._labels),
            cold_labels=len(self._labels) - len(self._pairs),
            promotions=len(self._pairs),
            promoted_labels=tuple(self._pairs),
            resident_bytes=self.resident_bytes(),
            on_disk_bytes=self.reader.file_bytes,
            resident_labels=len(self._pairs),
            promotion_retries=self._promotion_retries,
        )

    # -- Graph adjacency interface ------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.reader.n_nodes

    @property
    def n_edges(self) -> int:
        return self.reader.n_triples

    @property
    def n_triples(self) -> int:
        return self.reader.n_triples

    @property
    def labels(self) -> Set[str]:
        return set(self._labels)

    def matrices(self) -> TieredMatrices:
        return self._matrices

    def batched_blocks(self):
        """The view's shared multi-label block set (``batched`` kernel).

        Lazily created and filled as solver rounds touch labels.  A
        cold label promoted mid-solve simply *appends* its freshly
        adopted rows to the concatenated block on its first batched
        product — labels already stacked are never re-copied (the
        block grows geometrically, amortized O(1) per row).
        """
        if self._batched is None:
            from repro.bitvec.kernel import BatchedBlockSet

            self._batched = BatchedBlockSet(self.reader.n_nodes)
        return self._batched

    def label_matrix(self, label: str) -> LabelMatrixPair | None:
        return self._pair(label)

    # -- column source of the join store ---------------------------------

    def label_csr(self, label: str, direction: str) -> CSR | None:
        """One direction's arrays, read as a promotion reads them
        (checked, under the retry policy): the views a resident pair
        adopted, without making a cold label resident, so residency
        stays what the solver touched."""
        if label not in self._label_set:
            return None
        reader = self.reader
        return self._with_retries(lambda: reader.csr(label, direction))

    def label_counts(self, label: str) -> Tuple[int, int, int]:
        """``(edges, distinct subjects, distinct objects)`` from the
        array table; promotes nothing."""
        if label not in self._label_set:
            return (0, 0, 0)
        return self.reader.label_counts(label)

    def nodes(self) -> Iterator[Hashable]:
        return iter(self._names)

    def node_name(self, index: int) -> Hashable:
        return self._names[index]

    def node_index(self, name: Hashable) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GraphError(f"unknown node: {name!r}") from None

    def has_node(self, name: Hashable) -> bool:
        return name in self._index

    def nodes_bitset(self, names: Iterable[Hashable]) -> Bitset:
        return Bitset.from_indices(
            self.n_nodes, (self.node_index(n) for n in names)
        )

    # -- materialization ---------------------------------------------------

    def triples(self) -> Iterator[Tuple[Hashable, str, Hashable]]:
        """Iterate all name triples (reads the forward arrays without
        promoting any label into the resident tier)."""
        return self.reader.iter_triples()

    def to_graph_database(self):
        """Fully materialize into a :class:`GraphDatabase`."""
        from repro.graph.database import GraphDatabase

        db = GraphDatabase()
        for s, p, o in self.triples():
            db.add_triple(s, p, o)
        return db

    def close(self) -> None:
        self.reader.close()

    def __repr__(self) -> str:
        report = (
            f"cold={len(self._labels) - len(self._pairs)}, "
            f"promoted={len(self._pairs)}"
        )
        return (
            f"TieredGraphView(|O|={self.n_nodes}, "
            f"triples={self.n_triples}, {report})"
        )
