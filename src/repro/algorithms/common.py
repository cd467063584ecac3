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
from collections.abc import Mapping

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


class NodeValues(Mapping):
    """A read-only ``{node_id: value}`` result over two parallel arrays.

    Every kernel answers a dense array over a snapshot's ``node_ids``;
    this keeps the pair as it is instead of re-keying it into a dict.
    ``node_ids`` (int64) and ``value_array`` are read-only views. The
    dict is built on the first key access and kept, so a caller that
    only hands the result on (to :func:`~repro.convert.table_from_hashmap`
    or the service's column reply) never pays for it. ``repr``, ``==``
    (in both directions), iteration order, ``len``, ``get`` and ``in``
    are those of the dict it replaces.

    The arrays are named ``node_ids`` and ``value_array`` because
    ``values()`` is the :class:`~collections.abc.Mapping` method.

    >>> import numpy as np
    >>> result = NodeValues(np.array([3, 1]), np.array([0.5, 0.25]))
    >>> result
    {3: 0.5, 1: 0.25}
    >>> result == {1: 0.25, 3: 0.5}, {3: 0.5, 1: 0.25} == result
    (True, True)
    >>> result[1], result.get(2), 3 in result, len(result)
    (0.25, None, True, 2)
    """

    __slots__ = ("node_ids", "value_array", "_dict")

    def __init__(self, node_ids, values) -> None:
        node_ids = _read_only(np.asarray(node_ids, dtype=np.int64))
        values = _read_only(np.asarray(values))
        if node_ids.ndim != 1 or values.shape != node_ids.shape:
            raise AlgorithmError(
                f"NodeValues needs two 1-D arrays of one length, got shapes "
                f"{node_ids.shape} and {values.shape}"
            )
        self.node_ids = node_ids
        self.value_array = values
        self._dict: "dict | None" = None

    def _items(self) -> dict:
        items = self._dict
        if items is None:
            items = self._dict = dict(
                zip(self.node_ids.tolist(), self.value_array.tolist())
            )
        return items

    def __getitem__(self, node_id):
        return self._items()[node_id]

    def __iter__(self):
        return iter(self._items())

    def __len__(self) -> int:
        return len(self.node_ids)

    def keys(self):
        return self._items().keys()

    def values(self):
        return self._items().values()

    def items(self):
        return self._items().items()

    def __eq__(self, other) -> bool:
        if isinstance(other, NodeValues):
            other = other._items()
        return self._items() == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._items())

    def __reduce__(self):
        return (NodeValues, (self.node_ids, self.value_array))


def _read_only(array: np.ndarray) -> np.ndarray:
    """A non-writeable view: the owner's array keeps its own flags."""
    view = array.view()
    view.flags.writeable = False
    return view
