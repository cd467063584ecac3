"""Connected components: weak (WCC), strong (SCC), and sizes.

SCC is one of the paper's Table 6 single-threaded benchmarks. It runs
the Multistep method (Slota, Rajamanickam & Madduri, IPDPS 2014): trim
nodes that cannot lie on a cycle, take the pivot's SCC as its forward
∩ backward BFS sets, and finish whatever is left with an iterative
(recursion-free) Tarjan. WCC is hash-min label propagation with
pointer jumping, partitioned over a worker pool. Both number their
components densely from 0 in order of each one's smallest dense id.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import UNREACHED, _frontier_expand, bfs_level_array
from repro.algorithms.common import NodeValues, as_csr
from repro.convert.table_to_graph import graph_from_edge_arrays
from repro.graphs.csr import CSRGraph
from repro.parallel.executor import WorkerPool, serial_pool
from repro.parallel.partition import split_range

#: Fewest nodes a vectorised SCC step must resolve to be worth running:
#: trimming stops at a level that peels fewer, and forward–backward
#: needs a pivot with at least this many live in- and out-edges. A trim
#: level has ~80 µs of fixed numpy overhead whatever its size, and
#: Tarjan visits a node in 1.1-1.25 µs (50 001-node chain, 2 000
#: disjoint 3-cycles), so a step resolving fewer than ~64 nodes is
#: cheaper left to Tarjan. Measured on 2 vCPUs: the R-MAT ``analytics``
#: graph takes 7-8 ms for any cutoff from 1 to 1024 (145 ms all-Tarjan),
#: and at cutoff 1 the chain takes 1.06 s instead of 57 ms.
_VECTOR_MIN = 64


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
    # Each component's label is its smallest member, which is its own
    # label: numbering those roots in ascending order relabels densely.
    is_root = labels == np.arange(count, dtype=np.int64)
    return (np.cumsum(is_root) - 1)[labels]


def weakly_connected_components(
    graph, pool: WorkerPool | None = None
) -> NodeValues:
    """Component label per node (labels dense from 0, edges undirected)."""
    if not isinstance(graph, CSRGraph):
        from repro.incremental.algorithms import incremental_wcc

        warm = incremental_wcc(graph, pool=pool)
        if warm is not None:
            return warm
    csr = as_csr(graph)
    labels = wcc_label_array(csr, pool=pool)
    return NodeValues(csr.node_ids, labels)


def strongly_connected_components(graph) -> NodeValues:
    """SCC label per node: trim, forward–backward, Tarjan on the rest.

    Labels are dense from 0 in order of each SCC's smallest dense id
    (ascending node id for a graph snapshot), as in WCC. See
    :func:`scc_label_array` for the method.

    >>> from repro.graphs.directed import DirectedGraph
    >>> g = DirectedGraph()
    >>> _ = g.add_edge(1, 2); _ = g.add_edge(2, 1); _ = g.add_edge(2, 3)
    >>> strongly_connected_components(g)
    {1: 0, 2: 0, 3: 1}
    """
    csr = as_csr(graph)
    labels = scc_label_array(csr)
    return NodeValues(csr.node_ids, labels)


def scc_label_array(csr: CSRGraph) -> np.ndarray:
    """Dense SCC labels by the Multistep method (Slota et al., IPDPS 2014).

    1. *Trim*, level by level: a node with no live in-edge or no live
       out-edge (self-loops ignored) is an SCC of its own.
    2. *Forward–backward*: the live node with the largest live
       in-degree × out-degree is the pivot; its SCC is the nodes both
       its out-BFS and its in-BFS reach. A trimmed node lies on no
       cycle, so the BFS runs over the whole CSR without a mask.
    3. *Tarjan* on the induced subgraph of whatever is left (on the CSR
       as given when steps 1 and 2 resolved nothing).

    Both vectorised steps are gated by :data:`_VECTOR_MIN`, so chains
    and graphs of many small cycles go straight to Tarjan. Labels are
    dense from 0 in order of each SCC's smallest dense id.
    """
    count = csr.num_nodes
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    # Each node's root: the smallest dense id of its SCC once resolved.
    root = np.full(count, -1, dtype=np.int64)
    live, in_deg, out_deg = _trim(csr, root)
    pivot = int(np.argmax(np.where(live, in_deg * out_deg, -1)))
    if live[pivot] and min(in_deg[pivot], out_deg[pivot]) >= _VECTOR_MIN:
        forward = bfs_level_array(csr, pivot, "out") != UNREACHED
        backward = bfs_level_array(csr, pivot, "in") != UNREACHED
        members = np.flatnonzero(forward & backward)
        root[members] = members[0]
        live[members] = False
    rest = np.flatnonzero(live)
    if rest.size:
        if rest.size == count:
            local = _tarjan_labels(csr.out_indptr, csr.out_indices)
        else:
            local = _tarjan_labels(*_induced_out_adjacency(csr, rest))
        # ``rest`` ascends, so each label's first member is its smallest.
        _, first = np.unique(local, return_index=True)
        root[rest] = rest[first][local]
    # A root is its own root, so numbering roots in ascending order
    # numbers SCCs by their smallest dense id.
    is_root = root == np.arange(count, dtype=np.int64)
    return (np.cumsum(is_root) - 1)[root]


def _trim(
    csr: CSRGraph, root: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peel trivial SCCs level by level, each node its own root.

    Returns the live mask and each node's in- and out-degree from live,
    non-loop neighbours. A level that would peel fewer than
    :data:`_VECTOR_MIN` nodes is left to Tarjan.
    """
    src = csr.edge_sources()
    loops = np.bincount(src[src == csr.out_indices], minlength=csr.num_nodes)
    in_deg = csr.in_degrees() - loops
    out_deg = csr.out_degrees() - loops
    live = np.ones(csr.num_nodes, dtype=bool)
    peel = np.flatnonzero((in_deg == 0) | (out_deg == 0))
    while peel.size >= _VECTOR_MIN:
        live[peel] = False
        root[peel] = peel
        touched = []
        for indptr, indices, degrees in (
            (csr.out_indptr, csr.out_indices, in_deg),
            (csr.in_indptr, csr.in_indices, out_deg),
        ):
            nbrs = _frontier_expand(indptr, indices, peel)
            hit, hits = np.unique(nbrs[live[nbrs]], return_counts=True)
            degrees[hit] -= hits
            touched.append(hit[degrees[hit] == 0])
        peel = np.union1d(*touched)
    return live, in_deg, out_deg


def _induced_out_adjacency(
    csr: CSRGraph, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Out-CSR of the subgraph induced by the ascending dense ids ``keep``."""
    local = np.full(csr.num_nodes, -1, dtype=np.int64)
    local[keep] = np.arange(keep.size, dtype=np.int64)
    src = local[csr.edge_sources()]
    dst = local[csr.out_indices]
    inner = (src >= 0) & (dst >= 0)
    indptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[inner], minlength=keep.size), out=indptr[1:])
    return indptr, dst[inner]


def _tarjan_labels(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Iterative Tarjan over an out-CSR; labels in SCC completion order."""
    count = len(indptr) - 1
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
    if labels is None:
        labels = strongly_connected_components(graph)
    sources, targets = (
        np.fromiter(map(labels.__getitem__, ends.tolist()), np.int64, len(ends))
        for ends in graph.edge_arrays()
    )
    across = sources != targets
    return graph_from_edge_arrays(
        sources[across],
        targets[across],
        nodes=np.fromiter(labels.values(), dtype=np.int64, count=len(labels)),
    )
