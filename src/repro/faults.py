"""Deterministic, seeded fault injection for resilience testing.

An interactive engine has to keep behaving when a loader hits a bad
row, a worker thread dies mid-kernel, or a conversion fails halfway.
This module provides the controlled way to *make* those things happen:
named fault sites are compiled into the hot paths (IO loaders, the
worker pool's kernel dispatch, the conversion algorithms), and stay
inert — a single module-global ``None`` check — unless a test arms
them::

    with inject_faults({"parallel.kernel": 0.3}, seed=7) as plan:
        ...  # ~30% of threaded kernel dispatches raise InjectedFaultError
    assert plan.triggered["parallel.kernel"] >= 1

Faults are drawn from per-site seeded RNG streams, so a given
``(sites, seed)`` pair produces the same trigger sequence per site on
every run regardless of which thread reaches the site — the property
that makes fault-injection tests reproducible.

Known sites (wired at the call points):

====================  ====================================================
``io.tsv.parse_row``  per data row of :func:`load_table_tsv`'s rows path,
                      which an armed plan selects
``io.npz.load``       before reading a binary table snapshot
``parallel.kernel``   per threaded kernel dispatch in :class:`WorkerPool`
``convert.sort_first`` entry of the sort-first graph build
``join.materialize``  entry of the equi-join materialisation
``snapshot.build``    per CSR conversion in the snapshot cache
====================  ====================================================

Durability sites (:mod:`repro.recovery`):

==============================  ============================================
``recovery.wal.append``         before a WAL frame is written (append fails
                                cleanly, nothing reaches the file)
``recovery.wal.torn_write``     writes only a prefix of the frame before
                                raising — a crash mid-``write(2)``
``recovery.checkpoint.write``   per object serialised into a checkpoint
                                (abort removes the temp dir, commits
                                nothing)
``recovery.checkpoint.bit_flip`` flips one byte of the just-written
                                artifact *silently* (disk rot: the
                                checkpoint still commits, verification
                                must catch it at recovery time)
==============================  ============================================

Service sites (:mod:`repro.service` — the multi-tenant session server):

=====================  =====================================================
``service.accept``     per request accepted off a client connection, before
                       it is queued (a fired fault is reported back to the
                       client as a retryable typed error)
``service.dispatch``   per request dispatch into a tenant's engine session
                       (fires inside the dispatcher's retry loop, so the
                       shared :class:`~repro.parallel.resilience.RetryPolicy`
                       absorbs transient firings)
``service.evict``      per session eviction-to-checkpoint (a fired fault
                       aborts the eviction cleanly; the session stays
                       resident and is retried on a later sweep)
=====================  =====================================================

Incremental sites (:mod:`repro.incremental` — delta snapshots and
dynamic algorithms):

===========================  ================================================
``incremental.delta.apply``  per delta-refresh attempt in the snapshot
                             cache, before the overlay is merged (a fired
                             fault abandons the delta and falls back to a
                             recorded full rebuild — never a wrong answer)
``incremental.compact``      when an overlay run exceeds the compaction
                             threshold, before the compacting rebuild is
                             counted (a firing still full-rebuilds; it is
                             recorded as a fallback instead of a compaction)
``incremental.wal.tail``     per WAL record examined by ``Ringo.TailWal``
                             (a firing stops the tail with the last applied
                             cursor in the summary, so the caller retries
                             from where it left off)
===========================  ================================================

Replication sites (:mod:`repro.replication` — WAL shipping to a hot
standby):

=========================  ==================================================
``replication.ship``       per batch on the primary side, before frames are
                           sent to the replica (a firing is transient: the
                           shipper's :class:`RetryPolicy` backs off and
                           resends from the shipped-LSN cursor — the
                           backpressure path)
``replication.apply``      per batch on the replica side, before any frame
                           is applied (reported to the shipper as a
                           retryable envelope; the resend is idempotent
                           because apply skips LSNs at or below the cursor)
``replication.promote``    at the start of a promotion (a firing aborts the
                           promotion cleanly: no epoch is bumped, nothing is
                           fenced, and the replica keeps following)
=========================  ==================================================
"""

from __future__ import annotations

import random
import threading
import zlib
from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.exceptions import InjectedFaultError, RingoError

KNOWN_SITES = (
    "io.tsv.parse_row",
    "io.npz.load",
    "parallel.kernel",
    "convert.sort_first",
    "join.materialize",
    "snapshot.build",
    "recovery.wal.append",
    "recovery.wal.torn_write",
    "recovery.checkpoint.write",
    "recovery.checkpoint.bit_flip",
    "service.accept",
    "service.dispatch",
    "service.evict",
    "incremental.delta.apply",
    "incremental.compact",
    "incremental.wal.tail",
    "replication.ship",
    "replication.apply",
    "replication.promote",
)


class FaultSite:
    """One armed site: a firing rate, an error factory, and counters."""

    __slots__ = ("name", "rate", "error", "max_triggers", "draws", "triggers",
                 "_seed", "_streams")

    def __init__(
        self,
        name: str,
        rate: float,
        seed: int,
        error: "type[BaseException] | None" = None,
        max_triggers: "int | None" = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise RingoError(f"fault rate for {name!r} must be in [0, 1], got {rate}")
        self.name = name
        self.rate = rate
        self.error = error
        self.max_triggers = max_triggers
        self.draws = 0
        self.triggers = 0
        # Per-site stream: the draw sequence a site sees depends only on
        # (seed, name), never on how other sites interleave with it.
        # crc32 rather than hash() so streams survive PYTHONHASHSEED.
        self._seed = seed
        site = random.Random(seed * 0x9E3779B1 + zlib.crc32(name.encode("utf-8")))
        self._streams: "dict[str | None, random.Random]" = {None: site}

    def draw(self, key: "str | None" = None) -> bool:
        """Advance the stream one step; True means "fire now". A ``key``
        (a tenant) draws from a stream of its own, seeded from (seed,
        name, key), whatever other keys' draws interleave with it."""
        self.draws += 1
        if self.max_triggers is not None and self.triggers >= self.max_triggers:
            return False
        rng = self._streams.get(key)
        if rng is None:
            stream = zlib.crc32(f"{self.name}/{key}".encode("utf-8"))
            rng = self._streams[key] = random.Random(self._seed * 0x9E3779B1 + stream)
        # random() is in [0, 1): rate 1.0 always fires, rate 0.0 never.
        fire = rng.random() < self.rate
        if fire:
            self.triggers += 1
        return fire


class FaultPlan:
    """The set of armed sites plus trigger accounting, thread-safe."""

    def __init__(self, sites: Mapping[str, object], seed: int = 0) -> None:
        self._lock = threading.Lock()
        self._sites: dict[str, FaultSite] = {}
        for name, spec in sites.items():
            if isinstance(spec, (int, float)):
                site = FaultSite(name, float(spec), seed)
            elif isinstance(spec, Mapping):
                site = FaultSite(
                    name,
                    float(spec.get("rate", 1.0)),
                    seed,
                    error=spec.get("error"),
                    max_triggers=spec.get("max_triggers"),
                )
            else:
                raise RingoError(
                    f"fault spec for {name!r} must be a rate or a mapping, "
                    f"got {type(spec).__name__}"
                )
            self._sites[name] = site

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(self._sites)

    @property
    def triggered(self) -> dict[str, int]:
        """Trigger counts per armed site (zero entries included)."""
        with self._lock:
            return {name: site.triggers for name, site in self._sites.items()}

    @property
    def drawn(self) -> dict[str, int]:
        """How many times each armed site was reached."""
        with self._lock:
            return {name: site.draws for name, site in self._sites.items()}

    def check(self, site_name: str, key: "str | None" = None) -> None:
        site = self._sites.get(site_name)
        if site is None:
            return
        with self._lock:
            fire = site.draw(key)
            trigger = site.triggers
        if fire:
            if site.error is not None:
                raise site.error(f"injected fault at site {site_name!r}")
            raise InjectedFaultError(site_name, trigger)


# The one module global the production path reads. ``None`` means no
# faults armed anywhere; fault_point() then costs a load and a compare.
_ACTIVE: FaultPlan | None = None
_ACTIVATION_LOCK = threading.Lock()


def active_plan() -> FaultPlan | None:
    """The currently armed plan, or ``None``.

    Hot loops can hoist this once instead of calling :func:`fault_point`
    per iteration: ``plan = active_plan()`` then
    ``if plan is not None: plan.check(site)`` inside the loop.
    """
    return _ACTIVE


def fault_point(site: str, key: "str | None" = None) -> None:
    """Raise the site's configured error if a plan is armed and fires
    (``key``: see :meth:`FaultSite.draw`)."""
    plan = _ACTIVE
    if plan is not None:
        plan.check(site, key)


@contextmanager
def inject_faults(
    sites: Mapping[str, object], seed: int = 0
) -> Iterator[FaultPlan]:
    """Arm fault sites for the duration of the ``with`` block.

    ``sites`` maps site names to either a firing rate in ``[0, 1]`` or a
    mapping with keys ``rate`` (default 1.0), ``error`` (an exception
    class; default :class:`InjectedFaultError`, which is retryable), and
    ``max_triggers`` (stop firing after N triggers; default unlimited).

    Plans nest: the inner plan fully replaces the outer one and the
    outer is restored on exit.

    >>> from repro.faults import inject_faults, fault_point
    >>> with inject_faults({"demo.site": 1.0}) as plan:
    ...     try:
    ...         fault_point("demo.site")
    ...     except Exception as err:
    ...         print(type(err).__name__)
    InjectedFaultError
    >>> plan.triggered["demo.site"]
    1
    >>> fault_point("demo.site")  # disarmed again: no-op
    """
    global _ACTIVE
    plan = FaultPlan(sites, seed=seed)
    with _ACTIVATION_LOCK:
        previous = _ACTIVE
        _ACTIVE = plan
    try:
        yield plan
    finally:
        with _ACTIVATION_LOCK:
            _ACTIVE = previous
