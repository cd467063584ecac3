"""Incremental view maintenance over CSR snapshots (ROADMAP item 3).

Ringo's interactivity story (paper §4.1: pipelines re-run as analysts
iterate) breaks down the moment a graph mutates — before this package a
1-edge change invalidated the whole ``(graph id, version)`` snapshot and
the next query paid a full O(V+E) rebuild. ``repro.incremental`` closes
that gap with three cooperating layers:

* :mod:`repro.incremental.delta` — a per-graph mutation log kept as
  flat int64 columns, the vectorised fold of a log window into its net
  edge/node delta columns, and the sorted-merge kernel that merges those
  into an existing CSR base, producing the snapshot a full rebuild would
  have produced (bitwise) at O(delta + E/word) numpy cost instead of the
  per-node Python conversion loop;
* :mod:`repro.incremental.engine` — the process-wide policy object:
  enablement (``incremental_engine().configure(enabled=...)``), the
  compaction threshold, the ``incremental.*`` counters surfaced in
  ``Ringo.health()``, and the per-graph warm algorithm states behind
  dynamic PageRank / WCC / triangle counting;
* :mod:`repro.incremental.ingest` — the ``Ringo.ApplyOps()`` /
  ``TailWal()`` ingestion path that folds recovery's LSN-ordered op
  stream into live graphs, making crash replay and streaming ingestion
  the same code path.

Equivalence with the batch path is not argued, it is *tested*: the
trace-differential harness (``tests/test_incremental_differential.py``)
replays seeded random mutation traces and asserts the incremental
answers match a from-scratch rebuild at every step — exact for WCC and
triangles, ε-bounded for PageRank (see :data:`PAGERANK_EPSILON_FACTOR`).
"""

from repro.incremental.delta import (
    DeltaColumns,
    DeltaError,
    MutationLog,
    apply_delta,
    fold_window,
)
from repro.incremental.engine import (
    PAGERANK_EPSILON_FACTOR,
    IncrementalEngine,
    incremental_engine,
    pagerank_epsilon,
)
from repro.incremental.ingest import apply_graph_ops

__all__ = [
    "DeltaColumns",
    "DeltaError",
    "MutationLog",
    "IncrementalEngine",
    "PAGERANK_EPSILON_FACTOR",
    "apply_delta",
    "apply_graph_ops",
    "fold_window",
    "incremental_engine",
    "pagerank_epsilon",
]
