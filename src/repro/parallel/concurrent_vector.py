"""Append-only vector with atomic slot claiming (paper §2.5).

Ringo: "Concurrent insertions to a vector are implemented by using an
atomic increment instruction to claim an index of a cell to which a new
value is inserted." :class:`ConcurrentVector` reproduces exactly that
protocol — a writer first claims an index with fetch-and-add, then writes
the cell — on a numpy backing array with amortised doubling.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.faults import fault_point
from repro.parallel.atomics import AtomicCounter
from repro.util.validation import check_positive


class ConcurrentVector:
    """A thread-safe, append-only int64 vector.

    >>> vec = ConcurrentVector()
    >>> vec.append(3)
    0
    >>> vec.append(1)
    1
    >>> vec.to_array().tolist()
    [3, 1]
    """

    def __init__(self, capacity: int = 16) -> None:
        check_positive(capacity, "capacity")
        self._data = np.zeros(capacity, dtype=np.int64)
        self._claims = AtomicCounter()
        self._grow_lock = threading.Lock()
        self._committed = AtomicCounter()

    def __len__(self) -> int:
        return self._committed.value

    def append(self, value: int) -> int:
        """Append ``value``; return the index its cell was claimed at."""
        fault_point("vector.append")
        # The claim counter is the synchronisation device: fetch-and-add
        # hands each writer a disjoint cell, the paper's atomic-increment
        # protocol.
        index = self._claims.fetch_add(1)
        self._ensure_capacity(index + 1)
        # A concurrent grow may snapshot the backing array between our claim
        # and our write; re-check against the live array until the write
        # lands in it.
        while True:
            data = self._data
            data[index] = value
            if self._data is data or self._data[index] == value:
                break
        self._committed.fetch_add(1)
        return index

    def extend(self, values: np.ndarray) -> tuple[int, int]:
        """Append a block of values; return the claimed ``(start, stop)`` span.

        Claiming the whole block with one fetch-and-add is the bulk variant
        Ringo uses when a worker inserts a batch of adjacency entries.
        """
        values = np.asarray(values, dtype=np.int64)
        count = len(values)
        if count == 0:
            start = self._claims.value
            return start, start
        start = self._claims.fetch_add(count)
        self._ensure_capacity(start + count)
        while True:
            data = self._data
            data[start:start + count] = values
            if self._data is data or np.array_equal(self._data[start:start + count], values):
                break
        self._committed.fetch_add(count)
        return start, start + count

    def to_array(self) -> np.ndarray:
        """Copy of the committed contents, in claim order."""
        length = self._claims.value
        return self._data[:length].copy()

    def sort(self) -> None:
        """In-place ascending sort of the committed contents.

        Graph construction sorts each adjacency vector after the parallel
        fill phase (§2.4); this is that step.
        """
        length = self._claims.value
        self._data[:length].sort()

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= len(self._data):
            return
        with self._grow_lock:
            if needed <= len(self._data):
                return
            capacity = len(self._data)
            while capacity < needed:
                capacity *= 2
            grown = np.zeros(capacity, dtype=np.int64)
            grown[:len(self._data)] = self._data
            self._data = grown
