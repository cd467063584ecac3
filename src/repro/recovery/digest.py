"""Content digests for recovery equivalence checks.

Crash-recovery tests (and the CI ``recovery-smoke`` job) need to assert
"the recovered catalog equals the reference run's" without comparing
live Python objects. These helpers reduce each catalog object to a
stable SHA-256 over its logical content — schema, persistent row ids,
and decoded column values for tables; directedness, node set, and edge
multiset for graphs — so two sessions match iff their catalogs are
semantically identical.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.graphs.base import edge_keys
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph
from repro.tables.schema import ColumnType
from repro.tables.table import Table


def _feed(hasher, label: str, data) -> None:
    """Hash a label, a byte count and ``data`` (bytes or a C-contiguous array).

    Arrays go in through the buffer protocol, not a ``.tobytes()`` copy;
    the bytes hashed are the same.
    """
    view = memoryview(data)
    hasher.update(label.encode("utf-8"))
    hasher.update(str(view.nbytes).encode("utf-8"))
    hasher.update(view)


def table_digest(table: Table) -> str:
    """SHA-256 of a table's schema, row ids, and decoded columns."""
    hasher = hashlib.sha256()
    schema = [[name, col_type.value] for name, col_type in table.schema]
    _feed(hasher, "schema", json.dumps(schema).encode("utf-8"))
    _feed(hasher, "row_ids", np.ascontiguousarray(table.row_ids))
    for name, col_type in table.schema:
        if col_type is ColumnType.STRING:
            # Decode through the pool: digests must not depend on which
            # StringPool (or code assignment) a session happened to use.
            payload = json.dumps(list(table.values(name))).encode("utf-8")
        else:
            payload = np.ascontiguousarray(table.column(name))
        _feed(hasher, f"col:{name}", payload)
    return hasher.hexdigest()


def _in_order(values: np.ndarray) -> bool:
    """Whether ``values`` never decreases."""
    return bool((values[1:] >= values[:-1]).all())


def _pairs_in_order(sources: np.ndarray, targets: np.ndarray) -> bool:
    """Whether the ``(source, target)`` pairs never decrease lexicographically."""
    rises = sources[1:] > sources[:-1]
    return _in_order(sources) and bool((rises | (targets[1:] >= targets[:-1])).all())


def graph_digest(graph) -> str:
    """SHA-256 of a graph's directedness, node set, and edge multiset.

    The edge image is the (E, 2) int64 array of ``(src, dst)`` pairs in
    ascending order, undirected edges as ``u <= v``. Every adjacency
    vector is kept sorted, so a CSR-backed graph's ``edge_arrays`` is in
    that order already: one pass proves it and the pairs are hashed as
    they come. Only edges out of order (a graph on the node hash table)
    are sorted, as one int64 key per edge over the ranks of its
    endpoints.
    """
    hasher = hashlib.sha256()
    nodes = graph.node_array()
    if not _in_order(nodes):
        nodes = np.sort(nodes)
    sources, targets = (np.asarray(ends, dtype=np.int64) for ends in graph.edge_arrays())
    edges = np.empty((len(sources), 2), dtype=np.int64)
    if _pairs_in_order(sources, targets):
        edges[:, 0], edges[:, 1] = sources, targets
    else:
        n = len(nodes)
        keys = edge_keys(np.searchsorted(nodes, sources), np.searchsorted(nodes, targets), n)
        rows, cols = np.divmod(np.sort(keys), n)
        edges[:, 0], edges[:, 1] = nodes[rows], nodes[cols]
    _feed(hasher, "directed", b"1" if graph.is_directed else b"0")
    _feed(hasher, "nodes", nodes)
    _feed(hasher, "edges", edges)
    return hasher.hexdigest()


def object_digest(obj) -> str:
    """Digest one catalog object (tables and graphs)."""
    if isinstance(obj, Table):
        return "table:" + table_digest(obj)
    if isinstance(obj, (DirectedGraph, UndirectedGraph)):
        return "graph:" + graph_digest(obj)
    raise TypeError(f"no digest for {type(obj).__name__} objects")


def catalog_digest(session) -> dict[str, str]:
    """Digest every object in a session's catalog, keyed by catalog name."""
    return {
        name: object_digest(session.GetObject(name)) for name in session.Objects()
    }
