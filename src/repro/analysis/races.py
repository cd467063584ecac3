"""Eraser-style lockset race detector for the parallel substrate.

The paper's parallelism is OpenMP's structured fork/join over C++ loops;
races there are excluded by construction (disjoint index ranges) or by
hardware atomics. Our reproduction expresses the same kernels as Python
closures on a thread pool, where nothing structural prevents a kernel
from scribbling on shared state. This module supplies the dynamic
checker: the classic lockset algorithm (Savage et al., *Eraser: A
Dynamic Data Race Detector for Multithreaded Programs*, TOCS 1997),
adapted to the objects this engine actually shares.

Per monitored object the detector keeps a shadow state machine::

    virgin -> exclusive(first thread) -> shared / shared-modified

and a **candidate lockset** — the intersection of the synchronisation
devices held at every access once a second thread appears. A write
finding the candidate set empty is reported as a race, with both access
stacks. "Devices" generalises locks slightly: the concurrent containers
report their internal mutate locks, and :class:`ConcurrentVector`
reports the :class:`AtomicCounter` whose fetch-and-add makes writer
cells disjoint — the moral equivalent of the paper's atomic increment.

Known false-negative limits (documented in ``docs/static-analysis.md``):
only instrumented/monitored objects are observed, lock-free snapshot
reads of the hash table are deliberately not reported, and a race whose
interleaving never occurs during the run is invisible — lockset analysis
finds *locking-discipline* violations, not all schedules.

Enable process-wide with :func:`enable` (the test suite does so when
``RINGO_RACE_CHECK=1``) or scoped with the :func:`race_check` context
manager; wrap ad-hoc shared objects in :class:`Monitored` and guard
them with :class:`TrackedLock`.
"""

from __future__ import annotations

import os
import threading
import traceback
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.analysis import hooks
from repro.exceptions import RaceDetected

_ENV_VAR = "RINGO_RACE_CHECK"

_VIRGIN = "virgin"
_EXCLUSIVE = "exclusive"
_SHARED = "shared"
_SHARED_MODIFIED = "shared-modified"


def env_enabled() -> bool:
    """Whether ``RINGO_RACE_CHECK`` requests detection."""
    return os.environ.get(_ENV_VAR, "").strip().lower() in ("1", "true", "yes", "on")


class _Shadow:
    """Per-object shadow word: state, owner, candidate lockset, first stack."""

    __slots__ = ("label", "state", "owner", "lockset", "first_thread", "first_stack")

    def __init__(self, label: str, owner: str) -> None:
        self.label = label
        self.state = _VIRGIN
        self.owner = owner
        self.lockset: "frozenset[int] | None" = None
        self.first_thread = owner
        self.first_stack = ""


class RaceReport:
    """One detected race: the object label and both conflicting stacks."""

    __slots__ = ("label", "first_thread", "second_thread", "first_stack", "second_stack")

    def __init__(
        self, label: str, first_thread: str, second_thread: str,
        first_stack: str, second_stack: str,
    ) -> None:
        self.label = label
        self.first_thread = first_thread
        self.second_thread = second_thread
        self.first_stack = first_stack
        self.second_stack = second_stack

    def to_exception(self) -> RaceDetected:
        """The typed exception equivalent of this report."""
        return RaceDetected(
            self.label, self.first_thread, self.second_thread,
            self.first_stack, self.second_stack,
        )

    def __repr__(self) -> str:
        return f"RaceReport({self.label!r}, {self.first_thread} vs {self.second_thread})"


class TrackedLock:
    """A lock the detector can see.

    Behaves like :class:`threading.Lock` but registers itself in the
    calling thread's held set, so accesses made while holding it carry
    it in their candidate locksets. Use it to guard shared state inside
    pool kernels under race checking.
    """

    def __init__(self, name: str = "tracked-lock") -> None:
        self.name = name
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire; the detector sees the hold via the thread-held stack."""
        # The paired release() lives on the caller's with-block exit; the
        # wrapper itself is the release discipline.  # ringo-lint: disable=R004
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            hooks.push_held(self)
        return acquired

    def release(self) -> None:
        """Release and drop the hold from the thread's held set."""
        hooks.pop_held(self)
        self._lock.release()

    def __enter__(self) -> "TrackedLock":
        # __exit__ is the guaranteed release path for this acquire.
        self.acquire()  # ringo-lint: disable=R004
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class RaceDetector:
    """The lockset state machine plus reporting and counters.

    ``raise_on_race=True`` (the default) raises :class:`RaceDetected` at
    the racing access, which the worker pool propagates to the caller
    with sibling cancellation; ``False`` records a :class:`RaceReport`
    and keeps running — the mode a long interactive session uses, read
    back through ``Ringo.health()``.
    """

    def __init__(self, raise_on_race: bool = True, capture_stacks: bool = True) -> None:
        self.raise_on_race = raise_on_race
        self.capture_stacks = capture_stacks
        self.reports: list[RaceReport] = []
        self._lock = threading.Lock()
        self._shadows: dict[int, _Shadow] = {}
        self._accesses = 0
        self._dispatches = 0
        self._reported: set[int] = set()

    # -- instrumentation entry points ----------------------------------

    def record_access(
        self, obj: object, label: str, write: bool, guards: Iterable[object]
    ) -> None:
        """Fold one access into the object's shadow state (thread-safe)."""
        thread = threading.current_thread().name
        held = frozenset(
            [id(guard) for guard in guards] + [id(lock) for lock in hooks.held_locks()]
        )
        report: "RaceReport | None" = None
        with self._lock:
            self._accesses += 1
            key = id(obj)
            shadow = self._shadows.get(key)
            if shadow is None:
                shadow = _Shadow(f"{label}#{key:x}", thread)
                if self.capture_stacks:
                    shadow.first_stack = "".join(traceback.format_stack(limit=12)[:-2])
                self._shadows[key] = shadow
            if shadow.state == _VIRGIN:
                shadow.state = _EXCLUSIVE
                shadow.owner = thread
            elif shadow.state == _EXCLUSIVE and shadow.owner == thread:
                pass  # still single-threaded: no discipline required yet
            else:
                if shadow.state == _EXCLUSIVE:
                    # Second thread arrived: candidate set starts here.
                    shadow.lockset = held
                    shadow.state = _SHARED_MODIFIED if write else _SHARED
                else:
                    assert shadow.lockset is not None
                    shadow.lockset = shadow.lockset & held
                    if write:
                        shadow.state = _SHARED_MODIFIED
                if (
                    shadow.state == _SHARED_MODIFIED
                    and not shadow.lockset
                    and key not in self._reported
                ):
                    self._reported.add(key)
                    second_stack = (
                        "".join(traceback.format_stack(limit=12)[:-2])
                        if self.capture_stacks
                        else ""
                    )
                    report = RaceReport(
                        shadow.label, shadow.first_thread, thread,
                        shadow.first_stack, second_stack,
                    )
                    self.reports.append(report)
        if report is not None and self.raise_on_race:
            raise report.to_exception()

    def record_dispatch(self) -> None:
        """Count one worker-pool kernel dispatch (shadowed for visibility)."""
        with self._lock:
            self._dispatches += 1

    # -- management ----------------------------------------------------

    def forget(self, obj: object) -> None:
        """Drop an object's shadow state (e.g. between test phases)."""
        with self._lock:
            self._shadows.pop(id(obj), None)
            self._reported.discard(id(obj))

    def stats(self) -> dict:
        """Counter snapshot for ``Ringo.health()``."""
        with self._lock:
            return {
                "raise_on_race": self.raise_on_race,
                "objects_tracked": len(self._shadows),
                "accesses": self._accesses,
                "kernel_dispatches": self._dispatches,
                "races": len(self.reports),
                "race_labels": [report.label for report in self.reports],
            }


class Monitored:
    """Wrap an ad-hoc shared object so the detector observes its accesses.

    The concurrent containers are instrumented natively; plain dicts,
    lists, and result buffers shared by kernels are not observable
    without help. ``Monitored`` proxies item access, ``append``, and
    ``extend`` to the wrapped object while reporting each one::

        shared = Monitored({}, label="result-map")
        with TrackedLock("results") as lock: ...  # guarded: silent

    Unsynchronised writes from two pool threads raise
    :class:`RaceDetected` (or are recorded, per detector mode).
    """

    __slots__ = ("obj", "label")

    def __init__(self, obj: object, label: str = "monitored") -> None:
        self.obj = obj
        self.label = label

    def __getitem__(self, key):
        hooks.container_access(self.obj, self.label, write=False)
        return self.obj[key]

    def __setitem__(self, key, value) -> None:
        hooks.container_access(self.obj, self.label, write=True)
        self.obj[key] = value

    def __len__(self) -> int:
        return len(self.obj)

    def append(self, value) -> None:
        hooks.container_access(self.obj, self.label, write=True)
        self.obj.append(value)

    def extend(self, values) -> None:
        hooks.container_access(self.obj, self.label, write=True)
        self.obj.extend(values)


# ----------------------------------------------------------------------
# Process-wide enable/disable
# ----------------------------------------------------------------------


def enable(raise_on_race: bool = True) -> RaceDetector:
    """Install a fresh process-wide detector and return it."""
    detector = RaceDetector(raise_on_race=raise_on_race)
    hooks.set_detector(detector)
    return detector


def disable() -> None:
    """Remove the process-wide detector."""
    hooks.set_detector(None)


def current() -> "RaceDetector | None":
    """The installed detector, or ``None``."""
    return hooks.get_detector()


@contextmanager
def race_check(raise_on_race: bool = True) -> Iterator[RaceDetector]:
    """Context manager arming the detector for a block (restores prior).

    >>> from repro.analysis.races import race_check
    >>> with race_check() as detector:
    ...     detector.stats()["races"]
    0
    """
    previous = hooks.get_detector()
    detector = enable(raise_on_race=raise_on_race)
    try:
        yield detector
    finally:
        hooks.set_detector(previous)
