"""Co-occurrence graph construction (paper §4.1's alternative build).

"One way to build a graph is to connect users who answered the same
question." Given a table with a *group* column (question id) and an
*actor* column (user id), :func:`co_occurrence_graph` links every pair
of actors sharing a group — the classic one-mode projection of the
bipartite actor/group relation.

The pair expansion is vectorised: rows are sorted by group, and for
each group of size g the g·(g−1)/2 pairs are emitted with the same
cumsum machinery the join uses — no Python-level pair loops.
"""

from __future__ import annotations

import numpy as np

from repro.convert.table_to_graph import graph_from_edge_arrays
from repro.exceptions import ConversionError
from repro.graphs.undirected import UndirectedGraph
from repro.tables.schema import ColumnType
from repro.tables.table import Table


def co_occurrence_pairs(
    groups: np.ndarray, actors: np.ndarray, max_group_size: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """All unordered actor pairs sharing a group value.

    An actor appearing twice in one group does not pair with itself,
    but duplicate pairs across groups are kept (callers deduplicate via
    graph construction). Groups larger than ``max_group_size`` are
    skipped when given — the standard guard against quadratic blowup on
    a mega-group.
    """
    if len(groups) != len(actors):
        raise ConversionError("group and actor arrays must have equal length")
    if len(groups) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.lexsort((actors, groups))
    sorted_groups = groups[order]
    sorted_actors = actors[order]
    boundaries = np.flatnonzero(sorted_groups[1:] != sorted_groups[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [len(sorted_groups)]))
    left_parts: list[np.ndarray] = []
    right_parts: list[np.ndarray] = []
    for start, stop in zip(starts.tolist(), stops.tolist()):
        size = stop - start
        if size < 2:
            continue
        if max_group_size is not None and size > max_group_size:
            continue
        members = np.unique(sorted_actors[start:stop])
        count = len(members)
        if count < 2:
            continue
        # Upper-triangle index pairs for this group.
        grid_i, grid_j = np.triu_indices(count, k=1)
        left_parts.append(members[grid_i])
        right_parts.append(members[grid_j])
    if not left_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(left_parts), np.concatenate(right_parts)


def co_occurrence_graph(
    table: Table,
    group_col: str,
    actor_col: str,
    max_group_size: int | None = None,
) -> UndirectedGraph:
    """Undirected graph linking actors that share a group.

    >>> table = Table.from_columns(
    ...     {"question": [10, 10, 11], "user": [1, 2, 3]})
    >>> graph = co_occurrence_graph(table, "question", "user")
    >>> graph.has_edge(1, 2), graph.has_node(3)
    (True, False)
    """
    for name in (group_col, actor_col):
        if table.schema.require(name) is not ColumnType.INT:
            raise ConversionError(
                f"co-occurrence requires integer columns; {name!r} is "
                f"{table.schema[name].value}"
            )
    left, right = co_occurrence_pairs(
        table.column(group_col), table.column(actor_col), max_group_size
    )
    return graph_from_edge_arrays(left, right, directed=False)
