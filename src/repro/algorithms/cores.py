"""k-core decomposition (paper §3, Table 6 — "3-core" benchmark).

Level-synchronous peeling over the undirected projection (PKC, Kabir &
Madduri 2017). At level ``k`` every live node of degree ``<= k`` is
peeled at once with core number ``k``; one gather over the peeled rows
and one ``np.unique`` decrement their live neighbours, and the
neighbours that fall to ``<= k`` are the next round of the same level.
A round costs the frontier's adjacency, not a scan of every node. The
level then rises to the smallest live degree above ``k``.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NodeValues
from repro.algorithms.triangles import _undirected_csr
from repro.exceptions import AlgorithmError
from repro.graphs.directed import DirectedGraph
from repro.graphs.ops import subgraph
from repro.graphs.undirected import UndirectedGraph
from repro.util.validation import check_positive

#: A frontier smaller than this is peeled by a Python stack drain
#: instead of numpy rounds. A vectorised round has ~35 µs of fixed numpy
#: overhead whatever its size; a drained node of degree 2 costs ~1.6 µs,
#: so below ~20 such nodes the drain is cheaper. A long chain peels two
#: nodes per round: a 100K-node path takes 1.7 s in rounds, 0.16 s
#: drained. Measured on 2 vCPUs, the R-MAT ``analytics`` graph peels in
#: 25-31 ms for any cutoff from 1 to 16, and slows above 32.
_DRAIN_BELOW = 16


def core_numbers(graph) -> NodeValues:
    """Core number per node (max k such that the node is in the k-core).

    >>> from repro.graphs.undirected import UndirectedGraph
    >>> g = UndirectedGraph()
    >>> for u, v in [(1, 2), (2, 3), (3, 1), (3, 4)]:
    ...     _ = g.add_edge(u, v)
    >>> core_numbers(g)[1], core_numbers(g)[4]
    (2, 1)
    """
    sym = _undirected_csr(graph)
    return NodeValues(sym.node_ids, _core_number_array(sym))


def _core_number_array(sym) -> np.ndarray:
    indptr = sym.out_indptr
    indices = sym.out_indices
    degrees = sym.out_degrees().copy()
    cores = np.empty(sym.num_nodes, dtype=np.int64)
    alive = np.ones(sym.num_nodes, dtype=bool)
    level = -1
    while True:
        live = np.flatnonzero(alive)
        if not live.size:
            return cores
        level = max(level + 1, int(degrees[live].min()))
        frontier = live[degrees[live] <= level]
        while frontier.size:
            alive[frontier] = False
            cores[frontier] = level
            if frontier.size < _DRAIN_BELOW:
                frontier = _drain(frontier, level, indptr, indices, degrees, alive, cores)
                continue
            starts = indptr[frontier]
            lengths = indptr[frontier + 1] - starts
            offsets = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(
                np.cumsum(lengths) - lengths, lengths
            )
            nbrs = indices[np.repeat(starts, lengths) + offsets]
            touched, hits = np.unique(nbrs[alive[nbrs]], return_counts=True)
            degrees[touched] -= hits
            frontier = touched[degrees[touched] <= level]


def _drain(frontier, level, indptr, indices, degrees, alive, cores) -> np.ndarray:
    """Peel a small frontier node by node, cascading within ``level``.

    Nodes on the stack are already dead with core ``level``; popping one
    decrements its live neighbours, and a neighbour that falls to
    ``<= level`` dies and is pushed. Returns the stack once it grows back
    to :data:`_DRAIN_BELOW` (the caller resumes vectorised rounds), or an
    empty array when the level is finished.
    """
    stack = frontier.tolist()
    while stack and len(stack) < _DRAIN_BELOW:
        node = stack.pop()
        for nbr in indices[indptr[node]:indptr[node + 1]].tolist():
            if alive[nbr]:
                degrees[nbr] -= 1
                if degrees[nbr] <= level:
                    alive[nbr] = False
                    cores[nbr] = level
                    stack.append(nbr)
    return np.array(stack, dtype=np.int64)


def k_core(graph, k: int) -> "DirectedGraph | UndirectedGraph":
    """The maximal induced subgraph whose nodes all have core number >= k.

    The paper's Table 6 benchmarks ``3-core``; that is ``k_core(g, 3)``.
    The subgraph keeps ``graph``'s directedness, which a bare
    :class:`CSRGraph` does not record, so one raises
    :class:`~repro.exceptions.AlgorithmError`.
    """
    check_positive(k, "k")
    if not isinstance(graph, (DirectedGraph, UndirectedGraph)):
        raise AlgorithmError(
            f"k_core takes a DirectedGraph or UndirectedGraph, not {type(graph).__name__}"
        )
    sym = _undirected_csr(graph)
    keep = sym.node_ids[_core_number_array(sym) >= k]
    return subgraph(graph, keep.tolist())


def degeneracy(graph) -> int:
    """The graph's degeneracy: the largest k with a non-empty k-core."""
    sym = _undirected_csr(graph)
    if sym.num_nodes == 0:
        return 0
    return int(_core_number_array(sym).max())
