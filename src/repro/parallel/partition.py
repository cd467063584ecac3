"""Contention-free work partitioning.

Ringo's graph→table conversion "partitions the graph's nodes or edges
among worker threads, pre-allocating the output table, and assigning a
corresponding partition in the output table to each thread" (§2.4). The
helper here computes those disjoint partitions.
"""

from __future__ import annotations

from repro.util.validation import check_positive


def split_range(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``parts`` contiguous half-open spans.

    Spans differ in length by at most one element, cover the range exactly
    once, and are returned in order — so each worker can write its span of a
    pre-allocated output without synchronisation.

    >>> split_range(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    >>> split_range(2, 5)
    [(0, 1), (1, 2)]
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    check_positive(parts, "parts")
    parts = min(parts, total) if total else 0
    if parts == 0:
        return []
    base, extra = divmod(total, parts)
    spans = []
    start = 0
    for index in range(parts):
        stop = start + base + (1 if index < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans
