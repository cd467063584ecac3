"""Connected components: weak (WCC), strong (SCC), and sizes.

SCC is one of the paper's Table 6 single-threaded benchmarks. The
implementation is Tarjan's algorithm made iterative (recursion-free, so
million-node graphs don't hit Python's stack limit); WCC is hash-min
label propagation with pointer jumping, partitioned over a worker pool.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import as_csr
from repro.graphs.csr import CSRGraph
from repro.parallel.executor import WorkerPool, serial_pool
from repro.parallel.partition import split_range


def _wcc_min_label_partition(csr: CSRGraph, lo: int, hi: int, labels) -> np.ndarray:
    """One hash-min round over the dense node span ``[lo, hi)``.

    Each node's new label is the minimum over its own label and the
    labels of its out- and in-neighbours — a gather, so partitions
    write only their own output slice and the result is independent of
    the partition count.
    """
    width = hi - lo
    new = labels[lo:hi].copy()
    for indptr, indices in (
        (csr.out_indptr, csr.out_indices),
        (csr.in_indptr, csr.in_indices),
    ):
        base, stop = int(indptr[lo]), int(indptr[hi])
        if base == stop:
            continue
        counts = np.diff(indptr[lo:hi + 1])
        local = np.repeat(np.arange(width, dtype=np.int64), counts)
        np.minimum.at(new, local, labels[indices[base:stop]])
    return new


def wcc_label_array(csr: CSRGraph, pool: WorkerPool | None = None) -> np.ndarray:
    """Dense WCC labels: hash-min label propagation with pointer jumping.

    Each round gathers the minimum label over every node's neighbours
    (one span per worker of ``pool``; inline without one), then hops
    every label to its own label, which collapses long propagation
    chains logarithmically. Components converge to their minimum dense
    node id, relabelled in ascending order — so labels are dense from 0
    in order of each component's smallest node, whatever the pool width.
    """
    count = csr.num_nodes
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    pool = pool if pool is not None else serial_pool()
    spans = split_range(count, pool.workers)
    labels = np.arange(count, dtype=np.int64)
    while True:
        gathered = np.concatenate(
            pool.map_chunks(
                spans, lambda span: _wcc_min_label_partition(csr, *span, labels)
            )
        )
        gathered = gathered[gathered]
        if np.array_equal(gathered, labels):
            break
        labels = gathered
    return np.searchsorted(np.unique(labels), labels)


def weakly_connected_components(
    graph, pool: WorkerPool | None = None
) -> dict[int, int]:
    """Component label per node (labels dense from 0, edges undirected)."""
    if not isinstance(graph, CSRGraph):
        from repro.incremental.algorithms import incremental_wcc

        warm = incremental_wcc(graph, pool=pool)
        if warm is not None:
            return warm
    csr = as_csr(graph)
    labels = wcc_label_array(csr, pool=pool)
    return dict(zip(csr.node_ids.tolist(), labels.tolist()))


def strongly_connected_components(graph) -> dict[int, int]:
    """SCC label per node (iterative Tarjan; labels dense from 0).

    >>> from repro.graphs.directed import DirectedGraph
    >>> g = DirectedGraph()
    >>> _ = g.add_edge(1, 2); _ = g.add_edge(2, 1); _ = g.add_edge(2, 3)
    >>> labels = strongly_connected_components(g)
    >>> labels[1] == labels[2], labels[1] == labels[3]
    (True, False)
    """
    csr = as_csr(graph)
    labels = _scc_labels(csr)
    return dict(zip(csr.node_ids.tolist(), labels.tolist()))


def _scc_labels(csr: CSRGraph) -> np.ndarray:
    count = csr.num_nodes
    indptr = csr.out_indptr
    indices = csr.out_indices
    index_of = np.full(count, -1, dtype=np.int64)
    lowlink = np.zeros(count, dtype=np.int64)
    on_stack = np.zeros(count, dtype=bool)
    labels = np.full(count, -1, dtype=np.int64)
    stack: list[int] = []
    next_index = 0
    next_label = 0

    for root in range(count):
        if index_of[root] != -1:
            continue
        # Each work-stack frame is (node, position in its adjacency run).
        work = [(root, int(indptr[root]))]
        index_of[root] = lowlink[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, cursor = work[-1]
            if cursor < indptr[node + 1]:
                work[-1] = (node, cursor + 1)
                child = int(indices[cursor])
                if index_of[child] == -1:
                    index_of[child] = lowlink[child] = next_index
                    next_index += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, int(indptr[child])))
                elif on_stack[child]:
                    if index_of[child] < lowlink[node]:
                        lowlink[node] = index_of[child]
            else:
                work.pop()
                if lowlink[node] == index_of[node]:
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        labels[member] = next_label
                        if member == node:
                            break
                    next_label += 1
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
    return labels


def component_sizes(labels: dict[int, int]) -> dict[int, int]:
    """Size of each component, keyed by label."""
    sizes: dict[int, int] = {}
    for label in labels.values():
        sizes[label] = sizes.get(label, 0) + 1
    return sizes


def largest_component_nodes(labels: dict[int, int]) -> set[int]:
    """Node ids of the largest component (ties broken by lowest label)."""
    if not labels:
        return set()
    sizes = component_sizes(labels)
    best = min(sizes, key=lambda label: (-sizes[label], label))
    return {node for node, label in labels.items() if label == best}


def is_weakly_connected(graph) -> bool:
    """Whether the graph has exactly one weak component (False if empty)."""
    csr = as_csr(graph)
    if csr.num_nodes == 0:
        return False
    labels = wcc_label_array(csr)
    return int(labels.max()) == 0


def count_components(labels: dict[int, int]) -> int:
    """Number of distinct components in a label map."""
    return len(set(labels.values()))


def condensation(graph, labels: "dict[int, int] | None" = None):
    """The condensation DAG: one node per SCC, edges between SCCs.

    ``labels`` defaults to a fresh SCC computation. The result is always
    acyclic (each SCC's internal edges collapse away), with node ids
    equal to the SCC labels.

    >>> from repro.graphs.directed import DirectedGraph
    >>> g = DirectedGraph()
    >>> for u, v in [(1, 2), (2, 1), (2, 3)]:
    ...     _ = g.add_edge(u, v)
    >>> dag = condensation(g)
    >>> dag.num_nodes, dag.num_edges
    (2, 1)
    """
    from repro.graphs.directed import DirectedGraph

    if labels is None:
        labels = strongly_connected_components(graph)
    result = DirectedGraph()
    for label in set(labels.values()):
        result.add_node(label)
    for src, dst in graph.edges():
        src_label = labels[src]
        dst_label = labels[dst]
        if src_label != dst_label:
            result.add_edge(src_label, dst_label)
    return result
