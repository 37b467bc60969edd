"""SPARQL -> SOI compilation (paper Sect. 4).

Per construct:

* **BGP** (Sect. 4.1) — one SOI variable per query variable, one per
  distinct constant, two edge inequalities per triple pattern
  (Theorem 1 gives soundness).
* **AND** (Lemmas 3/5) — shared *mandatory* variables are unified;
  a variable mandatory on one side but optional on the other keeps
  separate surrogates with copy inequalities ``v' <= v`` toward the
  mandatory occurrence (the (X3) treatment of non-well-designed
  patterns).
* **OPTIONAL** (Lemma 4 + Sect. 4.4) — variables of the optional
  side with a mandatory occurrence on the left are renamed to fresh
  surrogates ``v_Q2`` with ``v_Q2 <= v``; optional-only occurrences on
  both sides are renamed apart with no interdependency (the
  syntactically-closest rule falls out of compiling bottom-up:
  nested optionals chain ``z_R3 <= z_R2 <= z``).  A variable that is
  mandatory on the left but occurs in the optional side only inside a
  nested optional, with no mandatory occurrence in between (a
  non-well-designed nesting), gets no copy inequality: anchoring it
  would prune the inner matches whose failure to join decides the
  outer OPTIONAL, and lose solutions on the pruned store.
* **FILTER** — ignored (dropping a filter only enlarges the
  overapproximation; sound).
* **UNION** — must be normalized away first (Prop. 3); use
  :func:`compile_query` which handles normalization and returns one
  compiled branch per union-free query.

Constants (Sect. 4.5) become SOI variables pinned to a singleton
initial vector, and participate in the renaming machinery like
variables (so a constant constrained only inside an OPTIONAL cannot
unsoundly erase mandatory matches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Union as TUnion

from repro.errors import QueryError
from repro.graph.graph import Graph
from repro.rdf.terms import Variable
from repro.sparql.ast import (
    BGP,
    Filter,
    GraphPattern,
    Join,
    LeftJoin,
    SelectQuery,
    Union,
)
from repro.sparql.normalize import flatten, merge_bgps, to_union_free
from repro.sparql.parser import parse_query
from repro.core.soi import SystemOfInequalities


class ConstKey:
    """Identity key of a constant term inside the compiler."""

    __slots__ = ("value",)

    def __init__(self, value: Hashable):
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstKey) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("ConstKey", self.value))

    def __repr__(self) -> str:
        return f"ConstKey({self.value!r})"


TermKey = TUnion[Variable, ConstKey]


@dataclass
class Fragment:
    """Mandatory and optional variable occurrences of a sub-query.

    ``anchored`` records surrogate vids that already received their
    copy inequality toward the *syntactically closest* mandatory
    occurrence (Sect. 4.4); enclosing operators must not re-anchor
    them (``z_R3 <= z_R2 <= z`` — no direct ``z_R3 <= z``).
    """

    mand: Dict[TermKey, int] = field(default_factory=dict)
    opt: Dict[TermKey, List[int]] = field(default_factory=dict)
    anchored: Set[int] = field(default_factory=set)

    def all_keys(self) -> Set[TermKey]:
        return set(self.mand) | set(self.opt)


class CompiledQuery:
    """A union-free query compiled to an SOI, with variable maps."""

    def __init__(self, pattern: GraphPattern, soi: SystemOfInequalities,
                 fragment: Fragment):
        self.pattern = pattern
        self.soi = soi
        self.fragment = fragment

    def mandatory_vid(self, variable: Variable) -> Optional[int]:
        vid = self.fragment.mand.get(variable)
        return self.soi.find(vid) if vid is not None else None

    def all_vids(self, variable: Variable) -> List[int]:
        """Every SOI variable denoting ``variable`` (canonicalized)."""
        vids: List[int] = []
        mand = self.fragment.mand.get(variable)
        if mand is not None:
            vids.append(self.soi.find(mand))
        for vid in self.fragment.opt.get(variable, ()):  # surrogates
            canonical = self.soi.find(vid)
            if canonical not in vids:
                vids.append(canonical)
        return vids

    def variables(self) -> Set[Variable]:
        return {
            key
            for key in self.fragment.all_keys()
            if isinstance(key, Variable)
        }


def _term_key(term) -> TermKey:
    if isinstance(term, Variable):
        return term
    return ConstKey(term)


def _compile_bgp(soi: SystemOfInequalities, bgp: BGP) -> Fragment:
    mapping: Dict[TermKey, int] = {}
    for triple in bgp.triples:
        if isinstance(triple.predicate, Variable):
            raise QueryError(
                "variable predicates are not supported by dual simulation "
                f"pruning: {triple!r}"
            )
        for term in (triple.subject, triple.object):
            key = _term_key(term)
            if key not in mapping:
                if isinstance(term, Variable):
                    mapping[key] = soi.new_variable(str(term), origin=term)
                else:
                    mapping[key] = soi.new_constant(term)
    for triple in bgp.triples:
        soi.add_edge_constraint(
            mapping[_term_key(triple.subject)],
            triple.predicate,
            mapping[_term_key(triple.object)],
        )
    return Fragment(mand=mapping, opt={})


def _compile_join(
    soi: SystemOfInequalities, left: Fragment, right: Fragment
) -> Fragment:
    mand = dict(left.mand)
    opt = {key: list(vids) for key, vids in left.opt.items()}
    anchored = set(left.anchored) | set(right.anchored)

    def anchor(surrogate: int, mandatory: int) -> None:
        if surrogate not in anchored:
            soi.add_copy_constraint(surrogate, mandatory)
            anchored.add(surrogate)

    for key, vid in right.mand.items():
        if key in mand:
            soi.union(mand[key], vid)  # Lemma 3: shared mandatory unify
        else:
            if key in opt:
                # Optional on the left, mandatory on the right: the
                # left surrogates become dependent (Lemma 5 / (X3)).
                for surrogate in opt[key]:
                    anchor(surrogate, vid)
            mand[key] = vid

    for key, vids in right.opt.items():
        if key in mand:
            for surrogate in vids:
                anchor(surrogate, mand[key])
        opt.setdefault(key, []).extend(vids)
    return Fragment(mand=mand, opt=opt, anchored=anchored)


def _compile_left_join(
    soi: SystemOfInequalities, left: Fragment, right: Fragment
) -> Fragment:
    mand = dict(left.mand)
    opt = {key: list(vids) for key, vids in left.opt.items()}
    anchored = set(left.anchored) | set(right.anchored)

    def anchor(surrogate: int, mandatory: int) -> None:
        if surrogate not in anchored:
            soi.add_copy_constraint(surrogate, mandatory)
            anchored.add(surrogate)

    for key, vid in right.mand.items():
        if key in left.mand:
            # Lemma 4: rename + v_Q2 <= v toward the mandatory side.
            anchor(vid, left.mand[key])
        # Optional-only on the left: renamed apart, no interdependency
        # (Sect. 4.4, the x in P2/P3 example).
        opt.setdefault(key, []).append(vid)

    for key, vids in right.opt.items():
        # Any closer mandatory occurrence has anchored these already.
        # One it has not is a non-well-designed occurrence: its inner
        # match may conflict with the left's binding, and that failed
        # join keeps the bare left solution, so it stays free and its
        # triples survive pruning.
        opt.setdefault(key, []).extend(vids)
    return Fragment(mand=mand, opt=opt, anchored=anchored)


def _compile(soi: SystemOfInequalities, pattern: GraphPattern) -> Fragment:
    if isinstance(pattern, BGP):
        return _compile_bgp(soi, pattern)
    if isinstance(pattern, Join):
        left = _compile(soi, pattern.left)
        right = _compile(soi, pattern.right)
        return _compile_join(soi, left, right)
    if isinstance(pattern, LeftJoin):
        left = _compile(soi, pattern.left)
        right = _compile(soi, pattern.right)
        return _compile_left_join(soi, left, right)
    if isinstance(pattern, Filter):
        return _compile(soi, pattern.pattern)  # sound to ignore
    if isinstance(pattern, Union):
        raise QueryError(
            "UNION must be normalized away before compilation; "
            "use compile_query()"
        )
    raise QueryError(f"unknown pattern node: {pattern!r}")


def compile_pattern(pattern: GraphPattern) -> CompiledQuery:
    """Compile one union-free graph pattern to an SOI."""
    soi = SystemOfInequalities()
    fragment = _compile(soi, pattern)
    return CompiledQuery(pattern, soi, fragment)


def compile_query(
    query: SelectQuery | GraphPattern | str,
) -> List[CompiledQuery]:
    """Compile a query (text, SELECT AST, or bare pattern) into one
    :class:`CompiledQuery` per union-free branch (Prop. 3)."""
    if isinstance(query, str):
        query = parse_query(query)
    pattern = query.pattern if isinstance(query, SelectQuery) else query
    branches = to_union_free(merge_bgps(flatten(pattern)))
    return [compile_pattern(branch) for branch in branches]


def pattern_to_graph(bgp: BGP) -> Graph:
    """The graph representation ``G(G)`` of a BGP (Sect. 4.1).

    Variables and constants alike become nodes named by their term.
    """
    graph = Graph()
    for triple in bgp.triples:
        if isinstance(triple.predicate, Variable):
            raise QueryError("variable predicates have no graph representation")
        graph.add_edge(triple.subject, triple.predicate, triple.object)
    return graph
