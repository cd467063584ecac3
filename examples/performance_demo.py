"""Performance demonstration (paper §4.2).

Runs the paper's operation menu — table ops, conversions, and graph
algorithms — on the scaled benchmark datasets, printing wall-clock
times, processing rates, and object sizes the way Tables 2-6 do.

Run:  python examples/performance_demo.py [--big]
      (--big also runs the larger tw-scaled dataset)
"""

import sys

from repro import Ringo
from repro.algorithms.pagerank import pagerank
from repro.algorithms.triangles import total_triangles
from repro.convert.graph_to_table import to_edge_table
from repro.convert.table_to_graph import to_graph
from repro.memory.sizeof import format_bytes, object_size_bytes
from repro.util.timing import Stopwatch, format_duration
from repro.workflows.datasets import (
    LJ_SCALED,
    TW_SCALED,
    DatasetSpec,
    make_edge_table,
)


def run_dataset(ringo: Ringo, spec: DatasetSpec) -> None:
    print(f"\n=== {spec.name} (stand-in for {spec.paper_name}: "
          f"{spec.paper_nodes} nodes / {spec.paper_edges} edges) ===")

    table = make_edge_table(spec, pool=ringo.pool)
    print(f"edge table: {table.num_rows} rows, "
          f"{format_bytes(object_size_bytes(table))} in memory")

    with Stopwatch() as sw:
        graph = to_graph(table, "SrcId", "DstId")
    rate = table.num_rows / max(sw.elapsed, 1e-9) / 1e6
    print(f"table -> graph:  {format_duration(sw.elapsed):>8}  "
          f"({rate:.1f}M rows/s); graph {format_bytes(object_size_bytes(graph))}")

    with Stopwatch() as sw:
        edge_table = to_edge_table(graph, string_pool=ringo.pool)
    rate = graph.num_edges / max(sw.elapsed, 1e-9) / 1e6
    print(f"graph -> table:  {format_duration(sw.elapsed):>8}  ({rate:.1f}M edges/s)")

    with Stopwatch() as sw:
        pagerank(graph, iterations=10)
    print(f"PageRank (10 it):{format_duration(sw.elapsed):>8}")

    with Stopwatch() as sw:
        count = total_triangles(graph, pool=ringo.workers)
    print(f"triangles:       {format_duration(sw.elapsed):>8}  ({count} triangles)")

    threshold = int(edge_table.column("SrcId").max()) // 2
    with Stopwatch() as sw:
        selected = ringo.Select(edge_table, f"SrcId < {threshold}")
    rate = edge_table.num_rows / max(sw.elapsed, 1e-9) / 1e6
    print(f"select:          {format_duration(sw.elapsed):>8}  "
          f"({rate:.1f}M rows/s, kept {selected.num_rows})")


def main() -> None:
    specs = [LJ_SCALED]
    if "--big" in sys.argv:
        specs.append(TW_SCALED)
    with Ringo() as ringo:
        print(f"Ringo session ready: {ringo.NumFunctions()} registered functions, "
              f"{ringo.workers.workers} workers")
        for spec in specs:
            run_dataset(ringo, spec)
    print("\n(Absolute times are pure-Python scale; the paper's shapes —"
          "\n conversion ~10M+ rows/s slower than select, PageRank faster"
          "\n than triangles — should still hold.)")


if __name__ == "__main__":
    main()
