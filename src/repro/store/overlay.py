"""Mutable overlay over an immutable base backend (LSM-style).

:class:`OverlayBackend` is the third :class:`~repro.api.backend.GraphBackend`:
it wraps any *base* backend (in-memory or snapshot) plus an in-memory
delta of added and retracted triples, and is the only backend that
advertises ``writable`` in its capabilities.  All mutation flows
through :meth:`OverlayBackend.add` / :meth:`OverlayBackend.retract`
(the :class:`~repro.api.database.Database` write surface); the base is
never touched, so compaction (:meth:`repro.api.database.Database.compact`)
is simply exporting the merged view through the existing
:class:`~repro.storage.writer.SnapshotWriter`.

Semantics are RDF set semantics: adding a present triple and
retracting an absent one are no-ops, add-then-retract of a delta
triple cancels out, and re-adding a retracted base triple drops the
retraction — the delta is always the *minimal* diff against the base.

The solver-facing view (:class:`OverlayGraphView`) keeps per-label
adjacency current the same way :class:`~repro.storage.TieredGraphView`
keeps residency current: it is one long-lived object (the pruning
pipeline identity-checks it) whose matrix mapping serves *delta-free*
labels zero-copy from the base (after node growth, as the base's CSR
arrays at the new width) and rebuilds *dirty* labels (base edges
minus retractions plus additions) on first touch after a mutation.
Every mutation batch bumps an **epoch** and stamps the touched labels;
:meth:`OverlayGraphView.changed_since` is the contract the incremental
fixpoint cache (:mod:`repro.core.incremental`) uses to decide
whether a query's cached fixpoint is still its answer.

The view is also the join store's column source: the backend's
:class:`~repro.store.triple_store.TripleStore` reads a delta-free
label's CSR from the base view and a dirty label's from its rebuilt
pair, and counts both without a fill.  A write is one
:meth:`~repro.store.triple_store.TripleStore.invalidate` of the
touched labels plus growth of the store's node dictionary.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.bitvec import CSR, AdjacencyMatrix, Bitset, LabelMatrixPair
from repro.errors import GraphError
from repro.graph.database import Literal
from repro.obs.metrics import registry
from repro.obs.trace import current_tracer
from repro.rdf.dictionary import TermDictionary
from repro.store.triple_store import NameTriple, TripleStore

__all__ = ["OverlayBackend", "OverlayGraphView"]

IdPair = Tuple[int, int]


def _edge_keys(edges: Set[IdPair], n: int) -> np.ndarray:
    """``s * n + o`` of every ``(s, o)`` pair, as int64."""
    flat = np.fromiter(
        chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges)
    )
    return flat[0::2] * n + flat[1::2]


class OverlayMatrices:
    """Mapping ``label -> LabelMatrixPair`` over base + delta.

    Delta-free labels are served zero-copy from the base's mapping —
    for a snapshot base that keeps tiered promotion semantics intact;
    once nodes were added, the base pair's CSR arrays are adopted at
    the new width instead.  Dirty labels are rebuilt lazily by the
    view and cached until their next mutation.
    """

    def __init__(self, view: "OverlayGraphView"):
        self._view = view

    def __getitem__(self, label: str) -> LabelMatrixPair:
        pair = self.get(label)
        if pair is None:
            raise KeyError(label)
        return pair

    def get(self, label: str, default=None):
        view = self._view
        if view._delta_free(label):
            pair = view._base_pair(label)
            return default if pair is None else pair
        if label not in view.labels:  # e.g. fully retracted
            return default
        return view._pair_for(label)

    def __contains__(self, label: str) -> bool:
        return label in self._view.labels

    def __iter__(self) -> Iterator[str]:
        return iter(self._view.labels)

    def __len__(self) -> int:
        return len(self._view.labels)

    def keys(self) -> Iterator[str]:
        return iter(self._view.labels)

    def values(self) -> Iterator[LabelMatrixPair]:
        for label in self._view.labels:
            yield self[label]

    def items(self) -> Iterator[Tuple[str, LabelMatrixPair]]:
        for label in self._view.labels:
            yield (label, self[label])


class OverlayGraphView:
    """Solver-facing merged adjacency: base graph + delta.

    Satisfies the same read interface as
    :class:`~repro.graph.graph.Graph` / ``TieredGraphView`` (the
    surface :class:`~repro.pipeline.PruningPipeline` consumes), plus
    the mutation bookkeeping the overlay needs: :meth:`apply` for
    delta batches, :attr:`epoch` / :meth:`changed_since` for the
    fixpoint cache.

    Node indices extend the base's dense index space: base nodes keep
    their indices, nodes first seen in the delta are appended.  The
    base is treated as frozen — mutate only through the overlay.
    """

    def __init__(self, base):
        self._base = base
        self._base_graph = base.graph
        self._base_n = base.n_nodes
        self._base_labels: Set[str] = set(base.labels)
        self._new_names: List[Hashable] = []
        self._new_index: Dict[Hashable, int] = {}
        #: label -> {(src, dst)} edges added on top of the base.
        self._adds: Dict[str, Set[IdPair]] = {}
        #: label -> {(src, dst)} base edges currently retracted.
        self._retracts: Dict[str, Set[IdPair]] = {}
        self._n_added = 0
        self._n_retracted = 0
        #: Rebuilt pairs of dirty labels and widened base pairs of
        #: delta-free ones (a label's entry is dropped on its mutation,
        #: every entry on node growth).
        self._pairs: Dict[str, LabelMatrixPair] = {}
        self._batched = None
        self._matrices = OverlayMatrices(self)
        #: Bumped once per mutation batch that changed anything.
        self._epoch = 0
        #: label -> epoch of its last change.
        self._label_epoch: Dict[str, int] = {}

    # -- delta bookkeeping -------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    def changed_since(self, epoch: int) -> Set[str]:
        """Labels whose edges changed after ``epoch``.  Added nodes
        change no label: they only extend the index space."""
        return {
            label for label, at in self._label_epoch.items() if at > epoch
        }

    @property
    def n_delta_added(self) -> int:
        return self._n_added

    @property
    def n_delta_retracted(self) -> int:
        return self._n_retracted

    @property
    def n_new_nodes(self) -> int:
        return len(self._new_names)

    def delta_labels(self) -> Set[str]:
        """Labels currently carrying any delta edge."""
        out = {label for label, edges in self._adds.items() if edges}
        out |= {label for label, edges in self._retracts.items() if edges}
        return out

    def _delta_free(self, label: str) -> bool:
        """No delta edge touches ``label``: its edges are the base's
        (new nodes only extend the index space)."""
        return not self._adds.get(label) and not self._retracts.get(label)

    def _base_matrices(self):
        return self._base_graph.matrices()

    def _base_pair(self, label: str) -> Optional[LabelMatrixPair]:
        """A delta-free label's pair: the base's own, or once nodes
        were added, its CSR arrays adopted (no copy) at the new width
        and cached until the next node growth."""
        pair = self._base_matrices().get(label)
        if pair is None or not self._new_names:
            return pair
        widened = self._pairs.get(label)
        if widened is None:
            n = self.n_nodes
            widened = LabelMatrixPair(
                n,
                AdjacencyMatrix.from_csr(n, *pair.forward._csr()),
                AdjacencyMatrix.from_csr(n, *pair.backward._csr()),
            )
            self._pairs[label] = widened
        return widened

    def _intern(self, name: Hashable) -> int:
        idx = self._base_graph.node_index(name) if (
            self._base_graph.has_node(name)
        ) else self._new_index.get(name)
        if idx is None:
            idx = self._base_n + len(self._new_names)
            self._new_index[name] = idx
            self._new_names.append(name)
        return idx

    def _index_of(self, name: Hashable) -> Optional[int]:
        if self._base_graph.has_node(name):
            return self._base_graph.node_index(name)
        return self._new_index.get(name)

    def _base_has_edge(self, s: int, label: str, d: int) -> bool:
        if s >= self._base_n or d >= self._base_n:
            return False
        if label not in self._base_labels:
            return False
        pair = self._base_matrices().get(label)
        return pair is not None and pair.forward.has_edge(s, d)

    def _has_edge_ids(self, s: int, label: str, d: int) -> bool:
        if (s, d) in self._adds.get(label, ()):
            return True
        if (s, d) in self._retracts.get(label, ()):
            return False
        return self._base_has_edge(s, label, d)

    def _add_one(self, subject, label, obj) -> bool:
        if isinstance(subject, Literal):
            raise GraphError(
                f"literals may only occur as objects, not subjects: "
                f"{subject!r}"
            )
        if label is None or (isinstance(label, str) and not label):
            raise GraphError(f"edge label must be non-empty: {label!r}")
        s = self._intern(subject)
        d = self._intern(obj)
        if self._has_edge_ids(s, label, d):
            return False
        retracted = self._retracts.get(label)
        if retracted and (s, d) in retracted:
            retracted.discard((s, d))
            self._n_retracted -= 1
        else:
            self._adds.setdefault(label, set()).add((s, d))
            self._n_added += 1
        return True

    def _retract_one(self, subject, label, obj) -> bool:
        s = self._index_of(subject)
        d = self._index_of(obj)
        if s is None or d is None:
            return False
        if not self._has_edge_ids(s, label, d):
            return False
        added = self._adds.get(label)
        if added and (s, d) in added:
            added.discard((s, d))
            self._n_added -= 1
        else:
            self._retracts.setdefault(label, set()).add((s, d))
            self._n_retracted += 1
        return True

    def apply(
        self,
        adds: Iterable[NameTriple] = (),
        retracts: Iterable[NameTriple] = (),
    ) -> Tuple[int, Set[str], int]:
        """Apply one mutation batch; returns ``(n_applied,
        touched_labels, n_new_nodes)``.

        No-ops (adding present, retracting absent triples) neither
        count nor dirty anything; a batch that changes nothing does
        not bump the epoch."""
        touched: Set[str] = set()
        nodes_before = len(self._new_names)
        n_add = n_retract = 0
        for subject, label, obj in adds:
            if self._add_one(subject, label, obj):
                n_add += 1
                touched.add(label)
        for subject, label, obj in retracts:
            if self._retract_one(subject, label, obj):
                n_retract += 1
                touched.add(label)
        new_nodes = len(self._new_names) - nodes_before
        if not touched and not new_nodes:
            return (0, touched, 0)
        self._epoch += 1
        # Any change drops the batched block, as Graph does on a
        # mutation: the next batched solve restacks what it touches.
        self._batched = None
        for label in touched:
            self._label_epoch[label] = self._epoch
            self._pairs.pop(label, None)
        if new_nodes:
            # The index space grew: every cached pair is the wrong
            # shape now.
            self._pairs.clear()
        if n_add:
            registry().counter("overlay_adds_total").inc(n_add)
        if n_retract:
            registry().counter("overlay_retracts_total").inc(n_retract)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "mutation",
                epoch=self._epoch,
                added=n_add,
                retracted=n_retract,
                new_nodes=new_nodes,
                labels=",".join(sorted(touched)),
            )
        return (n_add + n_retract, touched, new_nodes)

    # -- dirty-pair rebuild ------------------------------------------------

    def _build_pair(self, label: str) -> LabelMatrixPair:
        """The merged pair of a dirty label, built from edge columns:
        the base's sorted ``(s, o)`` columns as ``s * n + o`` keys,
        retractions masked out, additions merged in, and the backward
        side from one sort of the transposed keys."""
        n = self.n_nodes
        keys = np.empty(0, dtype=np.int64)
        if label in self._base_labels:
            base_pair = self._base_matrices().get(label)
            if base_pair is not None:
                subjects, objects = base_pair.edge_columns()
                keys = subjects * n + objects
        retracted = self._retracts.get(label)
        if retracted:
            keys = keys[~np.isin(keys, _edge_keys(retracted, n))]
        added = self._adds.get(label)
        if added:
            keys = np.concatenate((keys, np.sort(_edge_keys(added, n))))
            keys.sort(kind="stable")  # two sorted runs: one merge
        subjects, objects = np.divmod(keys, n)
        backward = np.sort(objects * n + subjects)
        return LabelMatrixPair(
            n,
            AdjacencyMatrix.from_sorted_columns(n, subjects, objects),
            AdjacencyMatrix.from_sorted_columns(n, *np.divmod(backward, n)),
        )

    def _pair_for(self, label: str) -> Optional[LabelMatrixPair]:
        if label not in self._base_labels and not self._adds.get(label):
            return None
        pair = self._pairs.get(label)
        if pair is None:
            pair = self._build_pair(label)
            self._pairs[label] = pair
        return pair

    # -- Graph adjacency interface -----------------------------------------

    @property
    def n_nodes(self) -> int:
        return self._base_n + len(self._new_names)

    @property
    def n_edges(self) -> int:
        return self._base.n_triples + self._n_added - self._n_retracted

    @property
    def n_triples(self) -> int:
        return self.n_edges

    @property
    def labels(self) -> Set[str]:
        out = set(self._base_labels)
        for label, edges in self._adds.items():
            if edges:
                out.add(label)
        for label, edges in self._retracts.items():
            # A fully-retracted base label disappears, exactly as it
            # would from a compacted snapshot.
            if edges and label in out and not self._adds.get(label):
                pair = self._pair_for(label)
                if pair is None or pair.n_edges == 0:
                    out.discard(label)
        return out

    def matrices(self) -> OverlayMatrices:
        return self._matrices

    def label_matrix(self, label: str) -> Optional[LabelMatrixPair]:
        return self._matrices.get(label)

    # -- column source of the join store -----------------------------------

    def label_csr(self, label: str, direction: str) -> Optional[CSR]:
        """A delta-free label's CSR from the base, a dirty label's
        from its rebuilt pair."""
        if self._delta_free(label):
            return self._base_graph.label_csr(label, direction)
        pair = self._pair_for(label)
        return None if pair is None else pair.csr(direction)

    def label_counts(self, label: str) -> Tuple[int, int, int]:
        """A delta-free label's counts from the base (decode-free over
        a snapshot), a dirty label's from its rebuilt pair."""
        if self._delta_free(label):
            return self._base_graph.label_counts(label)
        pair = self._pair_for(label)
        return (0, 0, 0) if pair is None else pair.label_counts()

    def batched_blocks(self):
        """The overlay's own multi-label block set (``batched``
        kernel) — separate from the base's, because dirty labels'
        rebuilt pairs must shadow the base rows.  Dropped by every
        write that changes anything and recreated on the next use."""
        if self._batched is None:
            from repro.bitvec.kernel import BatchedBlockSet

            self._batched = BatchedBlockSet(self.n_nodes)
        return self._batched

    def nodes(self) -> Iterator[Hashable]:
        return chain(self._base_graph.nodes(), iter(self._new_names))

    def node_name(self, index: int) -> Hashable:
        if index < self._base_n:
            return self._base_graph.node_name(index)
        return self._new_names[index - self._base_n]

    def node_index(self, name: Hashable) -> int:
        idx = self._index_of(name)
        if idx is None:
            raise GraphError(f"unknown node: {name!r}")
        return idx

    def has_node(self, name: Hashable) -> bool:
        return self._index_of(name) is not None

    def nodes_bitset(self, names: Iterable[Hashable]) -> Bitset:
        return Bitset.from_indices(
            self.n_nodes, (self.node_index(n) for n in names)
        )

    def triples(self) -> Iterator[NameTriple]:
        """Base triples minus retractions, then the additions —
        without materializing any dirty pair."""
        base_index = self._base_graph.node_index
        for s, p, o in self._base.triples():
            retracted = self._retracts.get(p)
            if retracted and (base_index(s), base_index(o)) in retracted:
                continue
            yield (s, p, o)
        for p, edges in self._adds.items():
            for s, d in edges:
                yield (self.node_name(s), p, self.node_name(d))

    def to_graph_database(self):
        """Fully materialize the merged view."""
        from repro.graph.database import GraphDatabase

        db = GraphDatabase()
        for s, p, o in self.triples():
            db.add_triple(s, p, o)
        return db

    def close(self) -> None:
        return None  # the backend owns the base's lifecycle

    def __repr__(self) -> str:
        return (
            f"OverlayGraphView(base={self._base_graph!r}, "
            f"+{self._n_added}/-{self._n_retracted}, "
            f"epoch={self._epoch})"
        )


class OverlayBackend:
    """The writable :class:`~repro.api.backend.GraphBackend`.

    Wraps a frozen base backend plus the in-memory delta; the only
    backend whose capabilities include ``writable``.  Residency
    reporting delegates to the base (the delta is always resident —
    it is the working set being edited).
    """

    kind = "overlay"

    def __init__(self, base):
        self.base = base
        self._view = OverlayGraphView(base)
        self._store: Optional[TripleStore] = None

    def capabilities(self):
        from repro.api.backend import BackendCapabilities, backend_capabilities

        base_caps = backend_capabilities(self.base)
        return BackendCapabilities(
            writable=True, snapshot_backed=base_caps.snapshot_backed
        )

    # -- the write surface ---------------------------------------------------

    def add(self, triples: Iterable[NameTriple]) -> int:
        """Add triples (idempotent); returns how many were new."""
        applied, touched, new_nodes = self._view.apply(adds=triples)
        self._sync_store(touched, new_nodes)
        return applied

    def retract(self, triples: Iterable[NameTriple]) -> int:
        """Retract triples (absent ones no-op); returns how many
        were actually removed."""
        applied, touched, new_nodes = self._view.apply(retracts=triples)
        self._sync_store(touched, new_nodes)
        return applied

    def _sync_store(self, touched: Set[str], new_nodes: int) -> None:
        """Grow the store's node dictionary by the new nodes and drop
        the touched labels' indexes."""
        store = self._store
        if store is None:
            return
        view = self._view
        for index in range(len(store.nodes), view.n_nodes):
            store.nodes.encode(view.node_name(index))
        store.invalidate(touched)

    @property
    def epoch(self) -> int:
        return self._view.epoch

    # -- GraphBackend --------------------------------------------------------

    @property
    def graph(self) -> OverlayGraphView:
        return self._view

    def triple_store(self) -> TripleStore:
        """The join store over the merged view.  Node ids are the
        view's node indices (the base's, then delta nodes in insertion
        order); labels are numbered in ``repr`` order, later ones
        appended."""
        if self._store is None:
            view = self._view
            self._store = TripleStore(
                view,
                TermDictionary.from_terms(view.nodes()),
                TermDictionary.from_terms(sorted(view.labels, key=repr)),
            )
        return self._store

    def batched_blocks(self):
        return self._view.batched_blocks()

    @property
    def n_nodes(self) -> int:
        return self._view.n_nodes

    @property
    def n_triples(self) -> int:
        return self._view.n_triples

    @property
    def labels(self) -> Set[str]:
        return self._view.labels

    def triples(self) -> Iterator[NameTriple]:
        return self._view.triples()

    def residency(self):
        return self.base.residency()

    def stats(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "base_kind": self.base.kind,
            "n_triples": self.n_triples,
            "n_nodes": self.n_nodes,
            "n_labels": len(self.labels),
            "epoch": self._view.epoch,
            "delta_adds": self._view.n_delta_added,
            "delta_retracts": self._view.n_delta_retracted,
            "delta_new_nodes": self._view.n_new_nodes,
            "delta_labels": len(self._view.delta_labels()),
            "batched_entries": (
                0 if self._view._batched is None
                else self._view._batched.n_entries
            ),
            "join_index_fills": getattr(self._store, "fill_count", 0),
            "base": self.base.stats(),
        }

    def close(self) -> None:
        self.base.close()

    def __repr__(self) -> str:
        return (
            f"OverlayBackend(base={self.base!r}, "
            f"+{self._view.n_delta_added}/"
            f"-{self._view.n_delta_retracted})"
        )
