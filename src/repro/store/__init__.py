"""Triple store, statistics, and join-based query engine (the
substrate standing in for Virtuoso/RDFox in the evaluation).

:class:`TripleStore` is the one store class: every backend's graph
view, and a pruning result, is a :class:`ColumnSource` it fills its
indexes from, one label at a time."""

from repro.store.bindings import (
    Solution,
    order_solutions,
    compatible,
    decode_all,
    decode_solution,
    merge,
    project,
    solution_key,
)
from repro.store.engine import PROFILES, QueryEngine, QueryResult
from repro.store.overlay import OverlayBackend, OverlayGraphView
from repro.store.reference import ReferenceEvaluator
from repro.store.executor import Executor
from repro.store.optimizer import order_bgp, order_greedy, order_static
from repro.store.statistics import StoreStatistics
from repro.store.triple_store import (
    ColumnSource,
    IdTriple,
    NameTriple,
    TripleStore,
)

__all__ = [
    "TripleStore",
    "ColumnSource",
    "OverlayBackend",
    "OverlayGraphView",
    "IdTriple",
    "NameTriple",
    "StoreStatistics",
    "Executor",
    "QueryEngine",
    "QueryResult",
    "ReferenceEvaluator",
    "PROFILES",
    "order_bgp",
    "order_greedy",
    "order_static",
    "Solution",
    "compatible",
    "merge",
    "project",
    "solution_key",
    "order_solutions",
    "decode_solution",
    "decode_all",
]
