"""The storage contract behind a :class:`~repro.api.database.Database`.

:class:`GraphBackend` is the single protocol the query layers consume:

* the SOI solver and the pruning stage read adjacency through
  :attr:`GraphBackend.graph` (``matrices()`` / ``n_nodes`` /
  ``node_name`` / ``nodes_bitset`` ...);
* the join engine reads dictionary-encoded indexes through
  :meth:`GraphBackend.triple_store`;
* reporting reads :meth:`GraphBackend.residency` and
  :meth:`GraphBackend.stats`.

Two implementations cover the reproduction's storage modes —
:class:`InMemoryBackend` over a :class:`~repro.graph.database.GraphDatabase`
and :class:`SnapshotBackend` over the on-disk snapshot store
(:class:`~repro.storage.SnapshotReader` + tiered residency).  Because
both satisfy the same contract, :class:`~repro.pipeline.PruningPipeline`
and :class:`~repro.store.engine.QueryEngine` no longer special-case
memory vs snapshot, and other connectors (the mutable overlay, a
remote store) slot in without touching the query
layers.

Every local backend's join store is the one
:class:`~repro.store.triple_store.TripleStore`, over its graph view:
opening it fills nothing, statistics come from the view's per-label
counts, and a label's indexes are filled from the view's sorted
``(s, o)`` columns on the first engine touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Hashable,
    Iterator,
    Optional,
    Protocol,
    Set,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.graph.database import GraphDatabase
from repro.storage.reader import SnapshotReader
from repro.storage.tiered import ResidencyReport, TieredGraphView
from repro.store.triple_store import TripleStore

NameTriple = Tuple[Hashable, str, Hashable]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do, declared instead of duck-typed.

    The façade gates operations on these flags — writes need
    ``writable``, in-process operations (``simulate``, ``explain``,
    ``benchmark``, ``advise``) need ``not remote`` — and raises a
    typed :class:`~repro.errors.UnsupportedOperationError` when the
    capability is missing, replacing the old ad-hoc
    ``hasattr(backend, "remote_query")`` probes.
    """

    #: Accepts :meth:`add`/:meth:`retract` delta batches.
    writable: bool = False
    #: Backed by an on-disk snapshot (directly or through an overlay).
    snapshot_backed: bool = False
    #: Executes queries in another process; the engine is not local.
    remote: bool = False


def backend_capabilities(backend) -> BackendCapabilities:
    """A backend's declared capabilities, inferred for legacy ones.

    Third-party backends predating :meth:`GraphBackend.capabilities`
    fall back to the old duck-typed probe: a ``remote_query`` method
    marks a remote connector; everything else is a local read-only
    store.
    """
    probe = getattr(backend, "capabilities", None)
    if callable(probe):
        return probe()
    return BackendCapabilities(
        remote=callable(getattr(backend, "remote_query", None))
    )


@runtime_checkable
class GraphBackend(Protocol):
    """What a storage connector must provide to power a session."""

    #: Stable connector kind (``"memory"``, ``"snapshot"``, ...).
    kind: str

    def capabilities(self) -> BackendCapabilities:
        """What this backend supports; the façade gates on the flags
        instead of probing attributes."""
        ...

    @property
    def graph(self):
        """Solver-facing adjacency view: an object with the
        :class:`~repro.graph.graph.Graph` read interface
        (``n_nodes``, ``labels``, ``matrices()``, ``node_name``,
        ``node_index``, ``has_node``, ``nodes_bitset``)."""
        ...

    def triple_store(self) -> TripleStore:
        """Dictionary-encoded indexes for the join engine (may be
        built lazily on first call)."""
        ...

    @property
    def n_nodes(self) -> int: ...

    @property
    def n_triples(self) -> int: ...

    @property
    def labels(self) -> Set[str]: ...

    def triples(self) -> Iterator[NameTriple]:
        """Iterate all name-level triples (no residency side effects)."""
        ...

    def residency(self) -> Optional[ResidencyReport]:
        """Label residency of the backing storage, or ``None`` when
        the notion does not apply (fully in-memory)."""
        ...

    def stats(self) -> Dict[str, object]:
        """Flat, JSON-friendly description of the backend."""
        ...

    def close(self) -> None: ...


class InMemoryBackend:
    """Backend over a fully materialized :class:`GraphDatabase`.

    The join-engine store reads a label direction's CSR from the
    graph on its first engine touch, so solver-only sessions
    (``simulate``) never pay for the dictionary-encoded indexes.
    ``graph_db`` may be any object with the
    :class:`~repro.graph.graph.Graph` read interface, ``triples()``
    and the store's column-source pair ``label_csr`` /
    ``label_counts`` (a :class:`GraphDatabase`, a
    :class:`~repro.storage.TieredGraphView`, ...).
    """

    kind = "memory"

    def __init__(self, graph_db=None):
        if graph_db is None:
            graph_db = GraphDatabase()
        self._graph = graph_db
        self._store: Optional[TripleStore] = None
        # Mark the database as session-owned so direct GraphDatabase
        # mutation (the pre-write-API idiom) raises and points at
        # Database.add/retract.  Foreign graph-likes (TieredGraphView,
        # mocks with __slots__) simply skip the marker.
        try:
            graph_db._session_attached = True
        except AttributeError:
            pass

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities()

    @property
    def graph(self):
        return self._graph

    def triple_store(self) -> TripleStore:
        if self._store is None:
            self._store = TripleStore.from_graph_database(self._graph)
        return self._store

    @property
    def n_nodes(self) -> int:
        return self._graph.n_nodes

    @property
    def n_triples(self) -> int:
        return self._graph.n_triples

    @property
    def labels(self) -> Set[str]:
        return set(self._graph.labels)

    def triples(self) -> Iterator[NameTriple]:
        return self._graph.triples()

    def residency(self) -> Optional[ResidencyReport]:
        return None

    def stats(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "n_triples": self.n_triples,
            "n_nodes": self.n_nodes,
            "n_labels": len(self.labels),
        }

    def close(self) -> None:  # nothing to release
        return None

    def __repr__(self) -> str:
        return f"InMemoryBackend({self._graph!r})"


class SnapshotBackend:
    """Backend over an on-disk snapshot (``repro-snap`` v4).

    The solver side is a :class:`TieredGraphView` — labels promoted
    on first query touch.  The join-engine store is a
    :class:`~repro.store.triple_store.TripleStore` over the same view:
    constructing it adopts the dictionaries in O(dictionary), its
    statistics come from the array table, and a label's pso/pos
    indexes are filled from its forward arrays, read as a promotion
    reads them (checked, under the view's retry policy), on first
    engine touch — so even sessions that *do* join open in
    milliseconds and only read the labels their queries use.
    :meth:`stats` reports ``join_index_fills`` next to the residency
    promotion counters.
    """

    kind = "snapshot"

    def __init__(self, source: Union[str, Path, SnapshotReader]):
        reader = (
            source if isinstance(source, SnapshotReader)
            else SnapshotReader(source)
        )
        self.reader = reader
        self.path: Path = reader.path
        self._view = TieredGraphView(reader)
        self._store: Optional[TripleStore] = None

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(snapshot_backed=True)

    @property
    def graph(self) -> TieredGraphView:
        return self._view

    def batched_blocks(self):
        """The tiered view's concatenated multi-label block set
        (``batched`` kernel); promoted labels append without
        re-stacking resident ones."""
        return self._view.batched_blocks()

    def triple_store(self) -> TripleStore:
        if self._store is None:
            self._store = TripleStore.from_graph_database(self._view)
        return self._store

    @property
    def n_nodes(self) -> int:
        return self.reader.n_nodes

    @property
    def n_triples(self) -> int:
        return self.reader.n_triples

    @property
    def labels(self) -> Set[str]:
        return self._view.labels

    def triples(self) -> Iterator[NameTriple]:
        return self.reader.iter_triples()

    def residency(self) -> ResidencyReport:
        return self._view.residency()

    def stats(self) -> Dict[str, object]:
        residency = self.residency()
        fills = getattr(self._store, "fill_count", 0)
        filled = getattr(self._store, "filled_predicates", frozenset())
        return {
            "kind": self.kind,
            "path": str(self.path),
            "join_index_fills": fills,
            "join_filled_predicates": len(filled),
            "n_triples": self.n_triples,
            "n_nodes": self.n_nodes,
            "n_labels": len(self.labels),
            "cold_labels": residency.cold_labels,
            "promotions": residency.promotions,
            "resident_labels": residency.resident_labels,
            "resident_bytes": residency.resident_bytes,
            "on_disk_bytes": residency.on_disk_bytes,
            "batched_entries": (
                0 if self._view._batched is None
                else self._view._batched.n_entries
            ),
            "batched_bytes": (
                0 if self._view._batched is None
                else self._view._batched.nbytes
            ),
        }

    def close(self) -> None:
        self.reader.close()

    def __repr__(self) -> str:
        return f"SnapshotBackend({self.path.name!r}, {self._view!r})"
