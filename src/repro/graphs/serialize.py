"""Binary save/load for graphs (paper §2.5 — Ringo keeps binary snapshots
so reloading a big graph skips text parsing).

Graphs serialise to ``.npz`` archives holding the node id array and the
edge arrays; loading rebuilds adjacency with the bulk (sort-first style)
path rather than per-edge inserts, isolated nodes included, so a loaded
graph is CSR-backed until it is first mutated. Format version 2 adds a
CRC32 digest per persisted array (``crc_nodes``/``crc_sources``/
``crc_targets``) so silent on-disk corruption is caught at load time;
version-1 archives (no digests) still load.
"""

from __future__ import annotations

import os
import warnings
import zipfile
import zlib

import numpy as np

from repro.exceptions import CorruptInputError, GraphError
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph

_FORMAT_VERSION = 2


def _array_crc(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def save_graph(graph: "DirectedGraph | UndirectedGraph", path: "str | os.PathLike[str]") -> None:
    """Write a graph to an ``.npz`` archive (with per-array CRC32 digests)."""
    sources, targets = graph.edge_arrays()
    nodes = graph.node_array()
    np.savez(
        path,
        version=np.int64(_FORMAT_VERSION),
        directed=np.int64(1 if graph.is_directed else 0),
        nodes=nodes,
        sources=sources,
        targets=targets,
        crc_nodes=np.int64(_array_crc(nodes)),
        crc_sources=np.int64(_array_crc(sources)),
        crc_targets=np.int64(_array_crc(targets)),
    )


def load_graph(
    path: "str | os.PathLike[str]", verify: "str | bool" = "raise"
) -> "DirectedGraph | UndirectedGraph":
    """Load a graph saved by :func:`save_graph`.

    ``verify`` controls what happens when a stored CRC32 digest does not
    match the loaded array: ``"raise"`` (default) raises
    :class:`~repro.exceptions.CorruptInputError` naming the array,
    ``"warn"`` emits a warning and loads anyway, and ``False`` skips
    verification. Version-1 archives carry no digests and load as-is.
    A garbled or truncated archive raises ``CorruptInputError`` too.
    """
    try:
        with np.load(path) as archive:
            version = int(archive["version"])
            if version not in (1, 2):
                raise GraphError(f"unsupported graph format version {version}")
            directed = bool(int(archive["directed"]))
            nodes = archive["nodes"]
            sources = archive["sources"]
            targets = archive["targets"]
            if version >= 2 and verify:
                for name, array in (
                    ("nodes", nodes), ("sources", sources), ("targets", targets),
                ):
                    expected = int(archive[f"crc_{name}"])
                    if _array_crc(array) != expected:
                        if verify == "warn":
                            warnings.warn(
                                f"{os.fspath(path)}: CRC mismatch in array "
                                f"{name!r}; loading anyway",
                                stacklevel=2,
                            )
                            continue
                        raise CorruptInputError(
                            os.fspath(path), "array CRC mismatch", array=name
                        )
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, KeyError, EOFError, OSError, ValueError) as error:
        raise CorruptInputError(
            os.fspath(path), f"not a readable graph archive: {error}"
        )
    from repro.convert.table_to_graph import graph_from_edge_arrays

    return graph_from_edge_arrays(sources, targets, directed=directed, nodes=nodes)


def save_edge_list(
    graph: "DirectedGraph | UndirectedGraph",
    path: "str | os.PathLike[str]",
    sep: str = "\t",
) -> int:
    """Write a plain text edge list (the Table 2 "text file" format).

    Returns the number of edges written.
    """
    sources, targets = graph.edge_arrays()
    with open(path, "w", encoding="utf-8") as handle:
        for src, dst in zip(sources.tolist(), targets.tolist()):
            handle.write(f"{src}{sep}{dst}\n")
    return len(sources)


def load_edge_list(
    path: "str | os.PathLike[str]",
    directed: bool = True,
    sep: str = "\t",
    comment: str = "#",
) -> "DirectedGraph | UndirectedGraph":
    """Read a text edge list into a graph (bulk construction path)."""
    sources: list[int] = []
    targets: list[int] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or (comment and line.startswith(comment)):
                continue
            fields = line.split(sep) if sep != " " else line.split()
            if len(fields) < 2:
                raise GraphError(f"malformed edge line: {line!r}")
            sources.append(int(fields[0]))
            targets.append(int(fields[1]))
    from repro.convert.table_to_graph import graph_from_edge_arrays

    return graph_from_edge_arrays(
        np.asarray(sources, dtype=np.int64),
        np.asarray(targets, dtype=np.int64),
        directed=directed,
    )
