"""Atomic primitives used by the concurrent containers.

The paper implements concurrent vector insertion with "an atomic increment
instruction to claim an index of a cell". CPython has no exposed hardware
atomics, so :class:`AtomicCounter` provides the same contract
(``fetch_add`` returns a unique, dense sequence of claims under concurrent
use) with a lock whose critical section is a single integer addition.
"""

from __future__ import annotations

import threading


class AtomicCounter:
    """A thread-safe counter supporting fetch-and-add.

    >>> counter = AtomicCounter()
    >>> counter.fetch_add(2)
    0
    >>> counter.value
    2
    """

    def __init__(self, initial: int = 0) -> None:
        self._value = initial
        self._lock = threading.Lock()

    def fetch_add(self, amount: int = 1) -> int:
        """Atomically add ``amount`` and return the value *before* the add.

        This mirrors the x86 ``lock xadd`` semantics the paper's concurrent
        vector uses to claim insertion slots.
        """
        with self._lock:
            before = self._value
            self._value += amount
            return before

    @property
    def value(self) -> int:
        """Current value of the counter."""
        with self._lock:
            return self._value

    def reset(self, value: int = 0) -> None:
        """Set the counter back to ``value``."""
        with self._lock:
            self._value = value
