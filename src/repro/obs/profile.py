"""Span-tree profiling report — ``Ringo.profile()``'s renderer.

Turns a flat list of span records (as the sinks store them) back into
the nested call tree and renders it with per-node call counts, total
(inclusive) and self (exclusive) wall time — the "where did that
ToGraph actually go?" view the interactive session answers with::

    engine.GetTriangles                  calls 1  total 0.532s  self 0.012s
      alg.total_triangles                calls 1  total 0.498s  self 0.101s
        pool.kernel                      calls 4  total 0.397s  self 0.397s

Sibling spans with the same name under the same parent are aggregated
(call counts add, times sum), which is what makes per-partition worker
spans readable instead of forty identical lines.
"""

from __future__ import annotations

from typing import Iterable


class _Node:
    __slots__ = ("name", "calls", "total_s", "rss_kb", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.rss_kb = 0
        self.children: dict[str, _Node] = {}


def build_tree(records: Iterable[dict]) -> _Node:
    """Aggregate span records into a name-keyed tree under a root node.

    A span whose parent is unknown (evicted from the ring buffer, or
    genuinely top-level) becomes a root child. Aggregation is by the
    *path* of names, so ``pool.kernel`` under ``GetTriangles`` and under
    ``GetWcc`` stay separate lines.
    """
    records = list(records)
    by_id = {record["span_id"]: record for record in records}
    root = _Node("<root>")

    def node_for(record: dict) -> _Node:
        parent_id = record.get("parent_id")
        parent_record = by_id.get(parent_id) if parent_id is not None else None
        parent_node = node_for(parent_record) if parent_record is not None else root
        child = parent_node.children.get(record["name"])
        if child is None:
            child = _Node(record["name"])
            parent_node.children[record["name"]] = child
        return child

    for record in records:
        node = node_for(record)
        node.calls += 1
        node.total_s += float(record.get("duration_s", 0.0))
        node.rss_kb += int(record.get("rss_delta_kb", 0))
    return root


def render_profile(records: Iterable[dict], min_total_s: float = 0.0) -> str:
    """Render the aggregated span tree as an aligned text report.

    ``min_total_s`` hides subtrees whose inclusive time is below the
    threshold (the tree root is always shown). Returns a short notice
    when there are no spans to report.
    """
    root = build_tree(records)
    if not root.children:
        return "(no spans recorded — is tracing enabled?)"
    lines = [
        f"{'span':<52} {'calls':>6} {'total':>10} {'self':>10} {'rss+':>8}"
    ]

    def walk(node: _Node, depth: int) -> None:
        child_total = sum(child.total_s for child in node.children.values())
        self_s = max(0.0, node.total_s - child_total)
        label = "  " * depth + node.name
        if len(label) > 52:
            label = label[:49] + "..."
        lines.append(
            f"{label:<52} {node.calls:>6} {node.total_s:>9.4f}s {self_s:>9.4f}s "
            f"{node.rss_kb:>6}KB"
        )
        for child in sorted(
            node.children.values(), key=lambda c: c.total_s, reverse=True
        ):
            if child.total_s >= min_total_s:
                walk(child, depth + 1)

    for child in sorted(root.children.values(), key=lambda c: c.total_s, reverse=True):
        if child.total_s >= min_total_s:
            walk(child, 0)
    return "\n".join(lines)
