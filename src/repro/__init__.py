"""repro — a pure-Python reproduction of *Ringo: Interactive Graph
Analytics on Big-Memory Machines* (Perez et al., SIGMOD 2015).

The one import most users need::

    from repro import Ringo

    ringo = Ringo()
    posts = ringo.LoadTableTSV(schema, "posts.tsv")
    java = ringo.Select(posts, "Tag=Java")
    graph = ringo.ToGraph(qa, "UserId-1", "UserId-2")
    ranks = ringo.GetPageRank(graph)

Subpackages: :mod:`repro.tables` (column-store relational engine),
:mod:`repro.graphs` (dynamic graph objects + CSR snapshots),
:mod:`repro.convert` (sort-first table↔graph conversions),
:mod:`repro.algorithms` (the analytics suite), :mod:`repro.parallel`
(worker pool and concurrent containers), :mod:`repro.workflows`
(benchmark datasets and demo scenarios), :mod:`repro.memory`
(object-size and footprint accounting).
"""

from repro.core.engine import Ringo
from repro.exceptions import (
    AnalysisError,
    CorruptInputError,
    CorruptionError,
    DivergenceError,
    ExecutionError,
    FencedError,
    MemoryBudgetError,
    PoolClosedError,
    RecoveryError,
    ReplayError,
    ReplicaLagError,
    ReplicationError,
    RetryExhaustedError,
    RingoError,
    SanitizerError,
    TransientError,
)
from repro.faults import inject_faults
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph
from repro.memory.budget import MemoryBudget
from repro.parallel.resilience import RetryPolicy
from repro.tables.schema import ColumnType, Schema
from repro.tables.table import Table

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "ColumnType",
    "CorruptInputError",
    "CorruptionError",
    "DirectedGraph",
    "DivergenceError",
    "ExecutionError",
    "FencedError",
    "MemoryBudget",
    "MemoryBudgetError",
    "PoolClosedError",
    "RecoveryError",
    "ReplayError",
    "ReplicaLagError",
    "ReplicationError",
    "RetryExhaustedError",
    "RetryPolicy",
    "Ringo",
    "RingoError",
    "SanitizerError",
    "Schema",
    "Table",
    "TransientError",
    "UndirectedGraph",
    "inject_faults",
    "__version__",
]
