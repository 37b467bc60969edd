"""Reconstructing homomorphic matches from a dual simulation.

The paper's companion work (ref. [21], Mennicke et al., "Reconstructing
Graph Pattern Matches Using SPARQL") observes that the largest dual
simulation is a complete search space for the actual (homomorphic)
matches: every match assigns each variable a node from its candidate
row (Theorem 1).  This module enumerates BGP matches by backtracking
*inside* those rows, checking pattern edges against the database's
adjacency bitsets — typically far faster than a cold join because the
rows have already absorbed all unary and most binary constraints.

Entry point: :func:`enumerate_matches` — yields solutions (variable ->
node name) for a compiled union-free BGP query and its solver result.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.bitvec import Bitset
from repro.core.compiler import CompiledQuery
from repro.core.solver import SolverResult
from repro.errors import QueryError
from repro.rdf.terms import Variable
from repro.sparql.ast import BGP


def _bgp_edges(compiled: CompiledQuery) -> List[Tuple[int, str, int]]:
    """Canonical (source_vid, label, target_vid) of all SOI edges."""
    soi = compiled.soi
    return [
        (soi.find(edge.source), edge.label, soi.find(edge.target))
        for edge in soi.edges
    ]


def enumerate_matches(
    compiled: CompiledQuery,
    result: SolverResult,
    limit: Optional[int] = None,
) -> Iterator[Dict[Variable, Hashable]]:
    """Enumerate the homomorphic matches of a compiled BGP query.

    Only union-free queries whose pattern is a plain BGP are
    supported (OPTIONAL match reconstruction needs the engine's
    left-join semantics; use the pipeline for those).
    """
    if not isinstance(compiled.pattern, BGP):
        raise QueryError(
            "match reconstruction requires a plain BGP; "
            f"got {type(compiled.pattern).__name__}"
        )
    data = result.data
    matrices = data.matrices()
    edges = _bgp_edges(compiled)

    # Variable order: most-constrained (smallest candidate row) first,
    # then prefer vids connected to already-ordered ones.
    vids = sorted(
        {vid for source, _label, target in edges for vid in (source, target)},
        key=lambda vid: result.row(vid).count(),
    )
    ordered: List[int] = []
    remaining = list(vids)
    while remaining:
        pick = None
        for vid in remaining:
            if not ordered or any(
                source == vid or target == vid
                for source, _l, target in edges
                if source in ordered or target in ordered
            ):
                pick = vid
                break
        if pick is None:
            pick = remaining[0]
        ordered.append(pick)
        remaining.remove(pick)

    # Edges grouped by the position at which both endpoints are bound.
    position = {vid: i for i, vid in enumerate(ordered)}
    checks_at: List[List[Tuple[int, str, int]]] = [[] for _ in ordered]
    for source, label, target in edges:
        checks_at[max(position[source], position[target])].append(
            (source, label, target)
        )

    emitted = 0
    assignment: Dict[int, int] = {}

    @lru_cache(maxsize=None)
    def partner_row(label: str, direction: str, node: int) -> Bitset:
        """One adjacency row, built once per enumeration: a sparse
        matrix materialises a row on every ``row()`` call."""
        matrix = getattr(matrices[label], direction)
        row = matrix.row(node)
        return row if row is not None else Bitset.zeros(matrix.n)

    def candidates_for(index: int) -> Bitset:
        """Row of ordered[index], narrowed by edges to assigned vids."""
        vid = ordered[index]
        row = result.row(vid).copy()
        for source, label, target in edges:
            if label not in matrices:
                row.clear()
                return row
            if source == vid and target in assignment and target != vid:
                row &= partner_row(label, "backward", assignment[target])
            elif target == vid and source in assignment and source != vid:
                row &= partner_row(label, "forward", assignment[source])
        return row

    def satisfied(index: int) -> bool:
        """Edge checks that became fully bound at this position."""
        for source, label, target in checks_at[index]:
            pair = matrices.get(label)
            if pair is None or not pair.forward.has_edge(
                assignment[source], assignment[target]
            ):
                return False
        return True

    def backtrack(index: int) -> Iterator[Dict[Variable, Hashable]]:
        nonlocal emitted
        if limit is not None and emitted >= limit:
            return
        if index == len(ordered):
            solution: Dict[Variable, Hashable] = {}
            for variable in compiled.variables():
                vid = compiled.mandatory_vid(variable)
                if vid is not None:
                    solution[variable] = data.node_name(assignment[vid])
            emitted += 1
            yield solution
            return
        vid = ordered[index]
        for candidate in candidates_for(index).iter_ones():
            assignment[vid] = int(candidate)
            if satisfied(index):
                yield from backtrack(index + 1)
            del assignment[vid]
            if limit is not None and emitted >= limit:
                return

    yield from backtrack(0)


def count_matches(
    compiled: CompiledQuery, result: SolverResult
) -> int:
    """Number of homomorphic matches (full enumeration)."""
    return sum(1 for _ in enumerate_matches(compiled, result))


def has_match(compiled: CompiledQuery, result: SolverResult) -> bool:
    """Existence check: cheap when the simulation is already empty."""
    if result.is_empty():
        return False
    return next(enumerate_matches(compiled, result, limit=1), None) is not None
