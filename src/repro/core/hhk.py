"""HHK-style dual simulation (Henzinger, Henzinger & Kopke, FOCS'95),
adapted to the labeled pattern-vs-data setting of Sect. 3.3.

The crux of HHK is the *remove set* bookkeeping: for each pattern
node ``v`` (and, in the labeled adaptation, each label ``a`` and each
edge direction) the algorithm tracks the data nodes that definitely
can no longer satisfy an adjacent constraint because *all* of their
``a``-successors (resp. predecessors) have left ``sim(v)``.  Work is
then driven by these sets instead of full passive sweeps, which is
what separates HHK's O(m*n) flavour from the O(n^3)-ish sweeps of the
Ma et al. strategy — though, as the paper observes (the "data
complexity hypothesis"), adding edge labels to the query setting
erodes that edge in practice.

Layout of the structures, for pattern node ``v`` and label ``a``:

* ``sim[v]``                 — current candidate set.
* ``remove_fwd[(v, a)]``     — data nodes ``u'`` with at least one
  ``a``-successor, none of which is still in ``sim[v]``.  Consumers:
  pattern edges ``(u, a, v)`` — such ``u'`` must leave ``sim[u]``.
* ``remove_bwd[(v, a)]``     — data nodes ``w'`` with at least one
  ``a``-predecessor, none still in ``sim[v]``.  Consumers: pattern
  edges ``(v, a, w)`` — such ``w'`` must leave ``sim[w]``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, Set, Tuple

from repro.core.simulation import Relation
from repro.graph.graph import Graph


@dataclass
class HHKStats:
    """Work counters of an HHK run."""

    pops: int = 0
    removals: int = 0
    cascade_checks: int = 0


@dataclass
class HHKResult:
    relation: Relation
    stats: HHKStats = field(default_factory=HHKStats)


class _HHKState:
    def __init__(self, pattern: Graph, data: Graph):
        self.pattern = pattern
        self.data = data
        self.stats = HHKStats()
        self.sim: Dict[Hashable, Set[int]] = {}
        self.remove_fwd: Dict[Tuple[Hashable, str], Set[int]] = {}
        self.remove_bwd: Dict[Tuple[Hashable, str], Set[int]] = {}
        self.queue: deque[Tuple[Hashable, str, str]] = deque()
        self.queued: Set[Tuple[Hashable, str, str]] = set()

        # Data-side label adjacency over integer indices, plus the
        # sets of data nodes having any a-successor/-predecessor.
        self.labels = pattern.labels
        self.data_fwd: Dict[str, Dict[int, Set[int]]] = {}
        self.data_bwd: Dict[str, Dict[int, Set[int]]] = {}
        for s, label, d in data.indexed_edges():
            if label not in self.labels:
                continue
            self.data_fwd.setdefault(label, {}).setdefault(s, set()).add(d)
            self.data_bwd.setdefault(label, {}).setdefault(d, set()).add(s)

    def schedule(self, v: Hashable, label: str, direction: str) -> None:
        key = (v, label, direction)
        if key not in self.queued:
            self.queued.add(key)
            self.queue.append(key)

    def shrink(self, v: Hashable, removed: Set[int]) -> None:
        """Remove ``removed`` from sim(v) and refresh remove sets of v.

        A data node ``u'`` enters ``remove_fwd[(v, a)]`` when its last
        ``a``-successor inside sim(v) was just removed.
        """
        if not removed:
            return
        self.sim[v] -= removed
        self.stats.removals += len(removed)
        sim_v = self.sim[v]
        for label in self.labels:
            fwd = self.data_fwd.get(label, {})
            bwd = self.data_bwd.get(label, {})
            touched_fwd = set()
            touched_bwd = set()
            for dropped in removed:
                # Predecessors of the dropped node may have lost their
                # last a-successor in sim(v).
                for pred in bwd.get(dropped, ()):  # pred -a-> dropped
                    self.stats.cascade_checks += 1
                    if not (fwd[pred] & sim_v):
                        touched_fwd.add(pred)
                # Successors may have lost their last a-predecessor.
                for succ in fwd.get(dropped, ()):  # dropped -a-> succ
                    self.stats.cascade_checks += 1
                    if not (bwd[succ] & sim_v):
                        touched_bwd.add(succ)
            if touched_fwd:
                self.remove_fwd.setdefault((v, label), set()).update(touched_fwd)
                self.schedule(v, label, "fwd")
            if touched_bwd:
                self.remove_bwd.setdefault((v, label), set()).update(touched_bwd)
                self.schedule(v, label, "bwd")


def hhk_dual_simulation(pattern: Graph, data: Graph) -> HHKResult:
    """Largest dual simulation via remove-set propagation."""
    state = _HHKState(pattern, data)
    all_data = set(range(data.n_nodes))

    # Initialization: start every sim(v) at V2, then apply the incident-
    # edge label filter (candidates must have the required incident
    # edges at all) through shrink(), which also seeds the remove sets.
    for v in pattern.nodes():
        state.sim[v] = set(all_data)
    for v in pattern.nodes():
        required = set(all_data)
        for label, _w in pattern.out_edges(v):
            fwd = state.data_fwd.get(label, {})
            required &= set(fwd.keys())
        for label, _u in pattern.in_edges(v):
            bwd = state.data_bwd.get(label, {})
            required &= set(bwd.keys())
        state.shrink(v, all_data - required)

    while state.queue:
        v, label, direction = state.queue.popleft()
        state.queued.discard((v, label, direction))
        state.stats.pops += 1
        if direction == "fwd":
            removable = state.remove_fwd.pop((v, label), set())
            if not removable:
                continue
            # Consumers: pattern edges (u, a, v).
            for u in pattern.predecessors(v, label):
                state.shrink(u, state.sim[u] & removable)
        else:
            removable = state.remove_bwd.pop((v, label), set())
            if not removable:
                continue
            # Consumers: pattern edges (v, a, w).
            for w in pattern.successors(v, label):
                state.shrink(w, state.sim[w] & removable)

    relation: Relation = {
        v: {data.node_name(i) for i in candidates}
        for v, candidates in state.sim.items()
    }
    return HHKResult(relation=relation, stats=state.stats)
