"""Function registry — the engine's analytics surface (paper §2.2).

"SNAP provides more than two hundred out-of-the-box graph constructs and
algorithms that are available for use on Ringo['s] in-memory graph data
structure." SNAP reaches that count by shipping each variant as its own
entry point (``GetInDegCnt``/``GetOutDegCnt``/``GetDegCnt``, one
generator per model, one method per graph operation). The registry here
enumerates this engine's surface the same way: every algorithm, every
documented variant, every table operation, every conversion, and every
graph-object operation, each as a named callable with its category and a
one-line description. The test suite asserts the 200+ claim against it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from repro.exceptions import RingoError


@dataclass(frozen=True)
class RegisteredFunction:
    """One entry in the registry."""

    name: str
    category: str
    func: Callable
    description: str


class FunctionRegistry:
    """A named collection of the engine's callable surface."""

    def __init__(self) -> None:
        self._entries: dict[str, RegisteredFunction] = {}

    def register(self, name: str, func: Callable, category: str) -> None:
        """Register ``func`` under ``name``; duplicate names are an error."""
        if name in self._entries:
            raise RingoError(f"function {name!r} already registered")
        doc = inspect.getdoc(func) or ""
        description = doc.splitlines()[0] if doc else name
        self._entries[name] = RegisteredFunction(name, category, func, description)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str) -> RegisteredFunction:
        """Look up an entry; raises :class:`RingoError` for unknown names."""
        try:
            return self._entries[name]
        except KeyError:
            raise RingoError(f"unknown function {name!r}")

    def names(self, category: str | None = None) -> list[str]:
        """Sorted entry names, optionally restricted to one category."""
        return sorted(
            name
            for name, entry in self._entries.items()
            if category is None or entry.category == category
        )

    def categories(self) -> dict[str, int]:
        """Entry count per category."""
        counts: dict[str, int] = {}
        for entry in self._entries.values():
            counts[entry.category] = counts.get(entry.category, 0) + 1
        return counts

    def __iter__(self) -> Iterator[RegisteredFunction]:
        return iter(self._entries.values())


def _named_partial(func: Callable, doc: str, /, *args, **kwargs) -> Callable:
    bound = partial(func, *args, **kwargs)
    bound.__doc__ = doc
    return bound


def _group_by_single(aggregate: str, table, keys, column: str, out: str = "Value"):
    """Group by ``keys`` applying one aggregate to ``column``."""
    from repro.tables.groupby import group_by

    return group_by(table, keys, {out: (aggregate, column)})


def _register_graph_methods(registry: FunctionRegistry, cls: type, names: list[str]) -> None:
    for method_name in names:
        method = getattr(cls, method_name)
        camel = "".join(part.capitalize() for part in method_name.split("_"))
        registry.register(f"{cls.__name__}.{camel}", method, "graph-object")


def build_default_registry() -> FunctionRegistry:
    """The full default registry (assembled once per engine)."""
    from repro import algorithms as alg
    from repro import convert, tables
    from repro.graphs.csr import CSRGraph
    from repro.graphs.directed import DirectedGraph
    from repro.graphs.multigraph import DirectedMultigraph
    from repro.graphs.network import Network
    from repro.graphs.undirected import UndirectedGraph
    from repro.graphs import ops as graph_ops
    from repro.graphs import serialize

    registry = FunctionRegistry()

    # --- graph algorithms: every public function -----------------------
    for name in alg.__all__:
        func = getattr(alg, name)
        if callable(func) and not isinstance(func, type):
            registry.register(f"algorithms.{name}", func, "algorithm")

    # --- documented variants, one entry each (SNAP style) --------------
    variant_specs: list[tuple[str, Callable]] = []
    for mode in ("in", "out", "total"):
        variant_specs.append(
            (
                f"GetDegreeCentrality_{mode}",
                _named_partial(
                    alg.degree_centrality,
                    f"Degree centrality using {mode}-degree.",
                    mode=mode,
                ),
            )
        )
        variant_specs.append(
            (
                f"GetDegreeDistribution_{mode}",
                _named_partial(
                    alg.degree_distribution,
                    f"{mode.capitalize()}-degree histogram table.",
                    mode=mode,
                ),
            )
        )
    for direction in ("out", "in", "both"):
        variant_specs.append(
            (
                f"GetBfsLevels_{direction}",
                _named_partial(
                    alg.bfs_levels,
                    f"BFS hop distances following {direction}-edges.",
                    direction=direction,
                ),
            )
        )
    for k in (3, 4, 5):
        variant_specs.append(
            (
                f"Get{k}Core",
                _named_partial(alg.k_core, f"The {k}-core subgraph.", k=k),
            )
        )
    variant_specs.append(
        (
            "GetPageRank_10iter",
            _named_partial(
                alg.pagerank, "PageRank with exactly 10 power iterations.", iterations=10
            ),
        )
    )
    for metric in ("l1", "l2", "linf"):
        variant_specs.append(
            (
                f"SimJoin_{metric}",
                _named_partial(
                    tables.sim_join, f"Similarity join under the {metric} metric.",
                    metric=metric,
                ),
            )
        )
    for aggregate in ("count", "sum", "mean", "min", "max", "first"):
        variant_specs.append(
            (
                f"GroupBy_{aggregate}",
                _named_partial(
                    _group_by_single, f"Group by keys and {aggregate} one column.",
                    aggregate,
                ),
            )
        )
    variant_specs.append(
        (
            "UnionAll",
            _named_partial(tables.union, "Bag union keeping duplicates.", distinct=False),
        )
    )
    variant_specs.append(
        (
            "GetClosenessCentrality_sampled",
            _named_partial(
                alg.closeness_centrality, "Closeness estimated from 64 BFS samples.",
                samples=64,
            ),
        )
    )
    variant_specs.append(
        (
            "GetBetweennessCentrality_sampled",
            _named_partial(
                alg.betweenness_centrality, "Betweenness estimated from 64 pivots.",
                samples=64,
            ),
        )
    )
    for name, func in variant_specs:
        registry.register(f"variants.{name}", func, "algorithm-variant")

    # --- table operations ----------------------------------------------
    table_functions = [
        "select",
        "count_matching",
        "join",
        "project",
        "rename",
        "group_by",
        "group_ids",
        "add_group_column",
        "order_by",
        "union",
        "intersect",
        "minus",
        "sim_join",
        "next_k",
        "load_table_tsv",
        "save_table_tsv",
        "load_table_npz",
        "save_table_npz",
        "parse_predicate",
        "distinct",
        "limit",
        "top_k",
        "value_counts",
        "sample_rows",
        "concat_rows",
        "with_column",
        "evaluate_expression",
        "describe",
        "crosstab",
        "quantiles",
        "infer_schema_tsv",
    ]
    for name in table_functions:
        registry.register(f"tables.{name}", getattr(tables, name), "table")

    # --- conversions -----------------------------------------------------
    for name in convert.__all__:
        registry.register(f"convert.{name}", getattr(convert, name), "conversion")

    # --- structural graph ops and serialization -------------------------
    for name in (
        "subgraph", "remove_self_loops", "filter_by_degree", "renumber",
        "degree_array", "ego_network", "merge_graphs", "intersect_graphs",
    ):
        registry.register(f"graphs.{name}", getattr(graph_ops, name), "graph-op")
    for name in ("save_graph", "load_graph", "save_edge_list", "load_edge_list"):
        registry.register(f"graphs.{name}", getattr(serialize, name), "graph-op")

    # --- graph-object operations (SNAP counts its class methods) --------
    _register_graph_methods(
        registry,
        DirectedGraph,
        [
            "add_node", "add_edge", "del_node", "del_edge", "has_node", "has_edge",
            "out_neighbors", "in_neighbors", "out_degree", "in_degree", "degree",
            "nodes", "edges", "edge_arrays", "node_array", "reverse",
            "to_undirected", "copy", "memory_bytes", "max_node_id",
        ],
    )
    _register_graph_methods(
        registry,
        UndirectedGraph,
        [
            "add_node", "add_edge", "del_node", "del_edge", "has_node", "has_edge",
            "neighbors", "degree", "nodes", "edges", "edge_arrays", "node_array",
            "copy", "memory_bytes", "max_node_id",
        ],
    )
    _register_graph_methods(
        registry,
        Network,
        [
            "set_node_attr", "node_attr", "set_node_attrs", "node_attr_names",
            "iter_node_attr", "set_edge_attr", "edge_attr", "edge_attr_names",
        ],
    )
    _register_graph_methods(
        registry,
        DirectedMultigraph,
        [
            "add_node", "add_edge", "del_edge", "has_edge_id", "edge_endpoints",
            "edge_count", "out_degree", "in_degree", "out_edges", "edges",
            "edge_arrays", "to_simple",
        ],
    )
    _register_graph_methods(
        registry,
        CSRGraph,
        [
            "from_edges", "from_graph", "dense_of", "dense_of_array",
            "edge_sources", "num_self_loops",
            "undirected_projection", "forward_adjacency",
            "out_neighbors", "in_neighbors", "out_degrees", "in_degrees",
            "memory_bytes", "with_edge_deleted",
        ],
    )

    # --- Table methods (the fluent surface) ------------------------------
    from repro.tables.table import Table

    _register_graph_methods(
        registry,
        Table,
        [
            "column", "values", "row", "iter_rows", "head", "add_column",
            "drop_column", "rename_column", "clone", "take", "filter_in_place",
            "reorder_in_place", "memory_bytes", "from_columns", "from_rows",
        ],
    )

    # --- the session API itself (paper-named entry points) ---------------
    from repro.core.engine import Ringo

    engine_methods = [
        name
        for name in dir(Ringo)
        if not name.startswith("_") and name not in ("close",)
        and callable(getattr(Ringo, name))
    ]
    for name in engine_methods:
        registry.register(f"ringo.{name}", getattr(Ringo, name), "session")
    return registry
