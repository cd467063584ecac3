"""Open-addressing hash table with linear probing (paper §2.5).

Ringo: "We implemented an open addressing hash table with linear probing"
(after Lang et al., *Massively parallel NUMA-aware hash joins*). This is a
faithful Python/numpy rebuild for int64 keys: a power-of-two bucket array,
multiplicative hashing, linear probing, amortised growth, and a striped
lock scheme so concurrent inserts from pool workers are safe.

It is the node-id table under the graph objects' conversion path and the
build side of the relational hash join, so its probe behaviour is exercised
by the Table 4 and Table 5 benchmarks.
"""

from __future__ import annotations

import threading
from typing import Iterator

import numpy as np

from repro.faults import fault_point
from repro.util.validation import check_positive

_EMPTY = np.int64(-1)
# Knuth's multiplicative constant, 2^64 / phi, as a signed 64-bit value.
_HASH_MULTIPLIER = np.int64(-7046029254386353131)
_MAX_LOAD_FACTOR = 0.7


def _hash_keys(keys: np.ndarray, mask: int) -> np.ndarray:
    """Multiplicative hash of int64 keys onto a power-of-two table."""
    with np.errstate(over="ignore"):
        mixed = keys.astype(np.int64) * _HASH_MULTIPLIER
    return (mixed.astype(np.uint64) >> np.uint64(33)).astype(np.int64) & mask


class LinearProbingHashTable:
    """Maps non-negative int64 keys to int64 values via linear probing.

    Keys must be >= 0 because -1 marks empty buckets, matching the common
    C++ trick Ringo's implementation uses. Values are arbitrary int64.

    >>> table = LinearProbingHashTable()
    >>> table.insert(42, 7)
    >>> table.lookup(42)
    7
    >>> table.lookup(43) is None
    True
    """

    def __init__(self, expected: int = 16) -> None:
        check_positive(expected, "expected")
        capacity = 16
        while capacity * _MAX_LOAD_FACTOR < expected:
            capacity *= 2
        self._keys = np.full(capacity, _EMPTY, dtype=np.int64)
        self._values = np.zeros(capacity, dtype=np.int64)
        self._size = 0
        # Mutations serialise on one lock (linear probing crosses any
        # slot-striping scheme); lookups run lock-free against a consistent
        # snapshot, which is the read-mostly pattern joins and conversions
        # use this table for.
        self._mutate_lock = threading.Lock()

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: int) -> bool:
        return self.lookup(key) is not None

    @property
    def capacity(self) -> int:
        """Current bucket count (always a power of two)."""
        return len(self._keys)

    @property
    def load_factor(self) -> float:
        """Fraction of buckets occupied."""
        return self._size / len(self._keys)

    def insert(self, key: int, value: int) -> None:
        """Insert or overwrite ``key`` with ``value``."""
        fault_point("hash.insert")
        self._check_key(key)
        with self._mutate_lock:
            self._grow_if_needed(1)
            self._insert_unlocked(int(key), int(value))

    def insert_if_absent(self, key: int, value: int) -> int:
        """Insert ``key``->``value`` unless present; return the stored value.

        This is the claim primitive graph construction needs: many workers
        may race to register the same node id, and all must agree on one
        stored value.
        """
        fault_point("hash.insert")
        self._check_key(key)
        with self._mutate_lock:
            self._grow_if_needed(1)
            slot = self._probe(int(key))
            if self._keys[slot] == key:
                return int(self._values[slot])
            self._keys[slot] = key
            self._values[slot] = value
            self._size += 1
            return int(value)

    def lookup(self, key: int) -> int | None:
        """Return the value stored for ``key``, or ``None``."""
        if key < 0:
            return None
        # Snapshot both arrays so a concurrent resize cannot interleave.
        keys = self._keys
        values = self._values
        mask = len(keys) - 1
        slot = int(_hash_keys(np.asarray([key], dtype=np.int64), mask)[0])
        while True:
            stored = keys[slot]
            if stored == key:
                return int(values[slot])
            if stored == _EMPTY:
                return None
            slot = (slot + 1) & mask

    def insert_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Bulk insert; the fast path for join builds.

        Equivalent to calling :meth:`insert` per pair but grows the table
        once up front.
        """
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if len(keys) == 0:
            return
        if int(keys.min()) < 0:
            raise ValueError("keys must be non-negative")
        fault_point("hash.insert")
        with self._mutate_lock:
            self._grow_if_needed(len(keys))
            for key, value in zip(keys.tolist(), values.tolist()):
                self._insert_unlocked(key, value)

    def lookup_many(self, keys: np.ndarray, missing: int = -1) -> np.ndarray:
        """Vectorised-ish bulk probe; absent keys map to ``missing``."""
        out = np.full(len(keys), missing, dtype=np.int64)
        table_keys = self._keys
        table_values = self._values
        mask = len(table_keys) - 1
        slots = _hash_keys(np.asarray(keys, dtype=np.int64), mask)
        for index, (key, slot) in enumerate(zip(keys.tolist(), slots.tolist())):
            while True:
                stored = table_keys[slot]
                if stored == key:
                    out[index] = table_values[slot]
                    break
                if stored == _EMPTY:
                    break
                slot = (slot + 1) & mask
        return out

    def items(self) -> Iterator[tuple[int, int]]:
        """Yield ``(key, value)`` pairs in unspecified (bucket) order."""
        occupied = self._keys != _EMPTY
        for key, value in zip(self._keys[occupied].tolist(), self._values[occupied].tolist()):
            yield key, value

    def _check_key(self, key: int) -> None:
        if key < 0:
            raise ValueError(f"keys must be non-negative, got {key}")

    def _probe(self, key: int) -> int:
        keys = self._keys
        mask = len(keys) - 1
        slot = int(_hash_keys(np.asarray([key], dtype=np.int64), mask)[0])
        while keys[slot] != _EMPTY and keys[slot] != key:
            slot = (slot + 1) & mask
        return slot

    def _insert_unlocked(self, key: int, value: int) -> None:
        slot = self._probe(key)
        if self._keys[slot] != key:
            self._keys[slot] = key
            self._size += 1
        self._values[slot] = value

    def _grow_if_needed(self, incoming: int) -> None:
        """Grow until the pending inserts fit; caller holds the mutate lock."""
        while (self._size + incoming) > len(self._keys) * _MAX_LOAD_FACTOR:
            self._grow()

    def _grow(self) -> None:
        old_keys = self._keys
        old_values = self._values
        capacity = len(old_keys) * 2
        self._keys = np.full(capacity, _EMPTY, dtype=np.int64)
        self._values = np.zeros(capacity, dtype=np.int64)
        occupied = old_keys != _EMPTY
        self._size = 0
        for key, value in zip(old_keys[occupied].tolist(), old_values[occupied].tolist()):
            self._insert_unlocked(key, value)
