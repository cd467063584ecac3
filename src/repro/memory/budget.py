"""Session memory budgets (paper §3).

Ringo's value proposition is holding everything in RAM; on a shared
big-memory machine the failure mode is an OOM that kills the whole
interactive session. A :class:`MemoryBudget` makes the large transient
allocations — the sort-first conversion's sorted endpoint ids, a join's
materialised output — *admission-controlled*: the engine estimates the
allocation up front (the same arithmetic :mod:`repro.memory.sizeof`
uses for Table 2) and admits the operation when the estimate fits, or
refuses it with a typed :class:`MemoryBudgetError` before any work.
"""

from __future__ import annotations

import threading

from repro.exceptions import MemoryBudgetError, RingoError

_INT64 = 8


def estimate_graph_build_bytes(num_edges: int) -> int:
    """Transient bytes the sort-first build allocates for an edge table.

    The peak is the endpoint labelling, alike for both directions: one
    argsort over the 2n endpoint ids holds about five int64 arrays of 2n
    at once (the ids, their order, the running ranks, their int64 cast
    and the labels). The edge-key sorts after it hold less.
    """
    if num_edges < 0:
        raise RingoError(f"num_edges must be non-negative, got {num_edges}")
    return 5 * 2 * num_edges * _INT64


def estimate_join_bytes(left_rows: int, right_rows: int, output_columns: int) -> int:
    """Transient bytes an equi-join materialises.

    The sort-probe engine argsorts the right keys and binary-searches the
    left keys, then gathers every output column. The output cardinality
    is not known up front, so the estimate assumes one match per left
    row; duplicate-heavy keys can materialise more.
    """
    if left_rows < 0 or right_rows < 0:
        raise RingoError("row counts must be non-negative")
    probe = (left_rows + 3 * right_rows) * _INT64
    gather = left_rows * max(output_columns, 1) * _INT64
    return probe + gather


class MemoryBudget:
    """A byte ceiling for big transient allocations, with accounting.

    An operation whose estimate fits is admitted; any other fails with
    :class:`MemoryBudgetError`.

    >>> budget = MemoryBudget(1 << 20)
    >>> budget.admit("ToGraph", 1000)
    >>> budget.admit("ToGraph", 1 << 30)
    Traceback (most recent call last):
        ...
    repro.exceptions.MemoryBudgetError: ToGraph estimated at 1073741824 \
bytes exceeds the session memory budget of 1048576 bytes
    """

    def __init__(self, limit_bytes: int) -> None:
        if limit_bytes <= 0:
            raise RingoError(f"memory budget must be positive, got {limit_bytes}")
        self.limit_bytes = int(limit_bytes)
        self._lock = threading.Lock()
        self._admitted = 0
        self._denials = 0
        self._peak_request = 0

    @classmethod
    def coerce(cls, value: "MemoryBudget | int | None") -> "MemoryBudget | None":
        """Accept a budget object, a raw byte count, or ``None``."""
        if value is None or isinstance(value, MemoryBudget):
            return value
        return cls(int(value))

    def admit(self, operation: str, estimated_bytes: int) -> None:
        """Admission-check one operation's estimated transient allocation.

        Returns when it fits; raises :class:`MemoryBudgetError` otherwise.
        """
        with self._lock:
            self._peak_request = max(self._peak_request, estimated_bytes)
            if estimated_bytes <= self.limit_bytes:
                self._admitted += 1
                return
            self._denials += 1
        raise MemoryBudgetError(operation, estimated_bytes, self.limit_bytes)

    def snapshot(self) -> dict[str, object]:
        """Accounting for ``Ringo.health()``."""
        with self._lock:
            return {
                "limit_bytes": self.limit_bytes,
                "admitted": self._admitted,
                "denials": self._denials,
                "peak_request_bytes": self._peak_request,
            }
