"""Strong simulation (Ma et al. [20]) — dual simulation with locality.

The paper takes dual simulation from Ma et al.'s *strong simulation*,
which additionally restricts matches to balls of radius ``d_Q`` (the
diameter of the pattern, over undirected edges) around candidate
center nodes, recovering bounded topology preservation at PTIME cost.
This module implements it on top of the SOI solver, as the natural
"further work" extension of the reproduced system:

For every data node ``w``, take the ball ``B(w, d_Q)`` (nodes within
undirected distance ``d_Q``), compute the largest dual simulation
between the pattern and the ball's induced subgraph, and accept ``w``
as a match center iff ``w`` occurs in that dual simulation.  The
match graph of an accepted center is the accepted relation itself.

Strong simulation refines dual simulation: every accepted pair is a
pair of the (global) largest dual simulation, and centers whose
global candidacy was a long-range artifact are rejected.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set

from repro.bitvec import Bitset
from repro.core.simulation import Relation, relation_size
from repro.core.solver import SolverOptions, largest_dual_simulation
from repro.errors import GraphError
from repro.graph.graph import Graph


def pattern_diameter(pattern: Graph) -> int:
    """Diameter of the pattern over undirected edges.

    Ma et al. define ``d_Q`` on the undirected pattern; a
    disconnected pattern has no finite diameter and is rejected.
    """
    if pattern.n_nodes == 0:
        raise GraphError("empty pattern has no diameter")
    neighbors: Dict[int, Set[int]] = {
        i: set() for i in range(pattern.n_nodes)
    }
    for s, _label, d in pattern.indexed_edges():
        neighbors[s].add(d)
        neighbors[d].add(s)
    diameter = 0
    for start in range(pattern.n_nodes):
        seen = {start: 0}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nxt in neighbors[node]:
                if nxt not in seen:
                    seen[nxt] = seen[node] + 1
                    queue.append(nxt)
        if len(seen) < pattern.n_nodes:
            raise GraphError(
                "strong simulation requires a connected pattern"
            )
        diameter = max(diameter, max(seen.values()))
    return diameter


def ball(data: Graph, center: Hashable, radius: int) -> Graph:
    """The subgraph induced by nodes within undirected ``radius`` of
    ``center`` (including all edges among them).

    Each breadth-first level is one forward and one backward product
    per label; the induced edges are each label's ``(s, o)`` columns
    masked by the ball."""
    n = data.n_nodes
    members = Bitset.singleton(n, data.node_index(center))
    frontier = members
    pairs = data.matrices()
    for _ in range(radius):
        reached = Bitset.zeros(n)
        for pair in pairs.values():
            reached |= pair.product(frontier, "forward")
            reached |= pair.product(frontier, "backward")
        frontier = reached - members
        if frontier.is_empty():
            break
        members |= frontier
    induced = Graph()
    for idx in members.iter_ones().tolist():
        induced.add_node(data.node_name(idx))
    for label, pair in pairs.items():
        subjects, objects = pair.edge_columns()
        inside = members.bits_at(subjects) & members.bits_at(objects)
        for s, d in zip(subjects[inside].tolist(), objects[inside].tolist()):
            induced.add_edge(data.node_name(s), label, data.node_name(d))
    return induced


@dataclass
class StrongMatch:
    """One accepted match: a center and its ball-local relation."""

    center: Hashable
    relation: Relation

    def nodes(self) -> Set[Hashable]:
        out: Set[Hashable] = set()
        for candidates in self.relation.values():
            out |= candidates
        return out


def strong_simulation(
    pattern: Graph,
    data: Graph,
    options: Optional[SolverOptions] = None,
) -> List[StrongMatch]:
    """All strong simulation matches of ``pattern`` in ``data``.

    Only nodes surviving the *global* largest dual simulation are
    tried as centers (a sound prefilter: a ball-local dual simulation
    is also a global one restricted to the ball).
    """
    diameter = pattern_diameter(pattern)
    global_result = largest_dual_simulation(pattern, data, options)
    global_relation = global_result.to_relation()
    candidate_centers: Set[Hashable] = set()
    for candidates in global_relation.values():
        candidate_centers |= candidates

    matches: List[StrongMatch] = []
    for center in sorted(candidate_centers, key=str):
        local = ball(data, center, diameter)
        local_result = largest_dual_simulation(pattern, local, options)
        relation = local_result.to_relation()
        if relation_size(relation) == 0:
            continue
        if any(center in candidates for candidates in relation.values()):
            matches.append(StrongMatch(center=center, relation=relation))
    return matches


def strong_simulation_nodes(
    pattern: Graph,
    data: Graph,
    options: Optional[SolverOptions] = None,
) -> Set[Hashable]:
    """Union of all nodes in any strong simulation match."""
    out: Set[Hashable] = set()
    for match in strong_simulation(pattern, data, options):
        out |= match.nodes()
    return out
