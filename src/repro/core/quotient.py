"""Bisimulation quotients as a dual-simulation prefilter (Sect. 6).

The paper's related-work discussion points at simulation-based
indexing (Milo & Suciu) and suggests that *"it would be sufficient to
produce dual simulation equivalence classes, which promises to obtain
a much smaller database fingerprint"*.  This module implements that
idea:

1. :func:`bisimulation_partition` — partition refinement over labeled
   forward+backward signatures (Paige/Tarjan-style, signature
   variant); optionally truncated after ``max_rounds`` refinements,
   which yields a coarser (still sound) partition.
2. :func:`quotient_graph` — the fingerprint: one node per block, an
   ``a``-edge between blocks iff some members have one.
3. :func:`quotient_prefilter` — solve the pattern against the
   (small) quotient and lift block candidacies back to node bitsets;
   by construction this over-approximates the exact largest dual
   simulation, so the bitsets are sound initial rows for the solver.

Soundness: the map sending each node to its block is a dual
simulation from the database into the quotient; composing it with
the exact pattern-to-database dual simulation yields a
pattern-to-quotient dual simulation.  Hence every exact candidate's
block survives the quotient solve, and lifting cannot lose
candidates.  With a fully refined (bisimulation) partition the lift
is frequently exact; with truncated refinement it degrades gracefully
to a coarser over-approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.bitvec import Bitset
from repro.core.solver import SolverOptions, largest_dual_simulation
from repro.graph.graph import Graph


def bisimulation_partition(
    data: Graph, max_rounds: Optional[int] = None
) -> List[int]:
    """Block id per node index, refined to (truncated) bisimulation.

    Starts from a single block and refines by the signature
    ``(sorted{(a, block(successor))}, sorted{(a, block(predecessor))})``
    until stable or ``max_rounds`` is reached.
    """
    n = data.n_nodes
    out_items: List[List[Tuple[str, int]]] = [[] for _ in range(n)]
    in_items: List[List[Tuple[str, int]]] = [[] for _ in range(n)]
    for s, label, d in data.indexed_edges():
        out_items[s].append((label, d))
        in_items[d].append((label, s))
    blocks = [0] * n
    rounds = 0
    while True:
        signatures: Dict[Tuple, int] = {}
        next_blocks = [0] * n
        for idx in range(n):
            out_sig = tuple(sorted(
                (label, blocks[succ])
                for label, succ in out_items[idx]
            ))
            in_sig = tuple(sorted(
                (label, blocks[pred])
                for label, pred in in_items[idx]
            ))
            signature = (blocks[idx], out_sig, in_sig)
            block = signatures.setdefault(signature, len(signatures))
            next_blocks[idx] = block
        rounds += 1
        # Stability: the refinement did not split any block.  Since a
        # signature embeds the previous block id, refinement only ever
        # splits, so comparing block counts suffices.
        if len(set(next_blocks)) == len(set(blocks)):
            return blocks
        blocks = next_blocks
        if max_rounds is not None and rounds >= max_rounds:
            return blocks


def quotient_graph(data: Graph, blocks: List[int]) -> Graph:
    """The fingerprint graph: one node per block."""
    quotient = Graph()
    for block in sorted(set(blocks)):
        quotient.add_node(block)
    for s, label, d in data.indexed_edges():
        quotient.add_edge(blocks[s], label, blocks[d])
    return quotient


@dataclass
class QuotientIndex:
    """A reusable fingerprint of one database."""

    data: Graph
    blocks: List[int]
    quotient: Graph

    def __post_init__(self):
        # Dense block-id array so lift() is one vectorized membership
        # test instead of a Python loop over every database node.
        self._blocks_arr = np.asarray(self.blocks, dtype=np.int64)

    @classmethod
    def build(
        cls, data: Graph, max_rounds: Optional[int] = None
    ) -> "QuotientIndex":
        blocks = bisimulation_partition(data, max_rounds=max_rounds)
        return cls(data=data, blocks=blocks, quotient=quotient_graph(data, blocks))

    @property
    def n_blocks(self) -> int:
        return self.quotient.n_nodes

    @property
    def compression(self) -> float:
        """Nodes per block — the fingerprint's size advantage."""
        if self.n_blocks == 0:
            return 1.0
        return self.data.n_nodes / self.n_blocks

    def lift(self, block_candidates) -> Bitset:
        """Node bitset of all members of the candidate blocks."""
        n = self.data.n_nodes
        wanted = np.fromiter(
            set(block_candidates), dtype=np.int64, count=-1
        )
        if wanted.size == 0:
            return Bitset.zeros(n)
        members = np.isin(self._blocks_arr, wanted)
        return Bitset.from_indices(n, np.flatnonzero(members))


def quotient_prefilter(
    pattern: Graph,
    index: QuotientIndex,
    options: Optional[SolverOptions] = None,
) -> Dict[Hashable, Bitset]:
    """Per-pattern-node candidate bitsets from the quotient solve.

    The returned bitsets over-approximate the exact largest dual
    simulation (see module docstring) and can seed the full solver.
    """
    result = largest_dual_simulation(pattern, index.quotient, options)
    relation = result.to_relation()
    return {
        node: index.lift(blocks) for node, blocks in relation.items()
    }


def solve_with_quotient(
    pattern: Graph,
    index: QuotientIndex,
    options: Optional[SolverOptions] = None,
):
    """Exact largest dual simulation, seeded by the quotient index.

    Solves the small quotient first, lifts the block candidacies to
    node bitsets, and hands them to the full solver as initial rows.
    The result equals the unseeded solve; the seeding only reduces
    fixpoint work.
    """
    from repro.core.soi import SystemOfInequalities
    from repro.core.solver import solve

    soi = SystemOfInequalities.from_pattern_graph(pattern)
    prefilter_by_origin = quotient_prefilter(pattern, index, options)
    prefilter = {}
    for node, candidates in prefilter_by_origin.items():
        vid = soi.variable_by_origin(node)
        if vid is not None:
            prefilter[vid] = candidates
    return solve(soi, index.data, options, prefilter=prefilter)
