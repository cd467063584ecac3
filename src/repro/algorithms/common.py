"""Shared plumbing for the algorithm suite.

Algorithms accept any of the dynamic graph classes or a pre-built
:class:`~repro.graphs.csr.CSRGraph`. Bulk (vectorised) kernels snapshot
to CSR first — the same pattern as Ringo, whose C++ loops stream over
contiguous adjacency while the Python surface holds the dynamic object.
"""

from __future__ import annotations

import functools
import time
import types

import numpy as np

from repro.exceptions import AlgorithmError
from repro.graphs.csr import CSRGraph
from repro.graphs.directed import DirectedGraph
from repro.graphs.snapshot import csr_snapshot
from repro.graphs.undirected import UndirectedGraph
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.spans import enabled as _tracing_enabled
from repro.obs.spans import trace as _obs_trace

AnyGraph = "DirectedGraph | UndirectedGraph | CSRGraph"


def instrument_entry_point(func):
    """Wrap one algorithm entry point in an ``alg.<name>`` span.

    The wrapper checks the tracer per call, so the untraced path costs
    one module-global read; when tracing is armed each call produces a
    span plus an ``alg.<name>.seconds`` latency histogram sample.
    ``functools.wraps`` keeps the public name/docstring, which is what
    the function registry and ``repro doc`` surface.
    """
    name = func.__name__

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not _tracing_enabled():
            return func(*args, **kwargs)
        start = time.perf_counter()
        with _obs_trace(f"alg.{name}"):
            result = func(*args, **kwargs)
        _metrics_registry().histogram(f"alg.{name}.seconds").observe(
            time.perf_counter() - start
        )
        return result

    return wrapper


def instrument_namespace(namespace: dict, names: "list[str]") -> None:
    """Apply :func:`instrument_entry_point` over a module namespace.

    The single observability seam for the whole suite:
    ``repro.algorithms.__init__`` calls this over ``__all__`` once at
    import, so every public *function* entry point is traced without
    touching the ~25 algorithm modules. Classes and constants (e.g.
    ``UnionFind``, ``TRIAD_NAMES``) are skipped; calls between algorithm
    modules bypass the wrappers (they bind the raw functions), so only
    user-facing entry points produce spans.
    """
    for name in names:
        obj = namespace.get(name)
        if isinstance(obj, types.FunctionType):
            namespace[name] = instrument_entry_point(obj)


def as_csr(graph: "DirectedGraph | UndirectedGraph | CSRGraph") -> CSRGraph:
    """Snapshot ``graph`` to CSR (no-op if it already is one).

    Dynamic graphs go through the process-wide versioned snapshot cache
    (:mod:`repro.graphs.snapshot`): back-to-back algorithm calls on an
    unchanged graph reuse one conversion, and any mutation rebuilds it
    automatically.
    """
    if isinstance(graph, CSRGraph):
        return graph
    if isinstance(graph, (DirectedGraph, UndirectedGraph)):
        return csr_snapshot(graph)
    raise AlgorithmError(f"expected a graph, got {type(graph).__name__}")


def scores_to_dict(csr: CSRGraph, values: np.ndarray) -> dict[int, float]:
    """Map a dense result vector back to ``{original_node_id: value}``."""
    return dict(zip(csr.node_ids.tolist(), values.tolist()))


def counts_to_dict(csr: CSRGraph, values: np.ndarray) -> dict[int, int]:
    """Integer-valued variant of :func:`scores_to_dict`."""
    return dict(zip(csr.node_ids.tolist(), values.tolist()))
