"""The provenance write-ahead log (WAL).

Ringo's provenance idea — record the full derivation of every object so
it can be regenerated rather than kept — doubles as a durability
mechanism (GraphX uses the same lineage trick for fault tolerance):
if every catalog-mutating operation is logged *before* its result is
published, a crashed session can be reconstructed by replaying the log.

Format: one JSON object per line (JSONL), CRC32-framed. Each record
carries a monotonically increasing ``lsn``, the operation name, its
JSON-encoded arguments, the catalog ids of its inputs, the catalog id
its output committed under, and a ``crc`` field — the CRC32 of the
canonical (sorted-keys, compact) JSON of the record *without* the crc
field. Appends are flushed and ``fsync``'d before the caller may
publish the result, so a record on disk is the commit point.

The reader tolerates a torn tail: a final line that fails to parse,
fails its CRC, or breaks LSN monotonicity ends the readable prefix
(everything after an invalid frame is untrusted, because later
operations may depend on the lost one).

This module is the only one that knows these rules. Every reader —
replay, the writer it arms, a replication follower, the shipper,
``Ringo.TailWal`` — resumes a :class:`WalTail` through :func:`iter_wal`,
and converts between records and frames with :meth:`WalRecord.payload`,
:meth:`WalRecord.from_payload`, :func:`framed` and :func:`unframe`.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.exceptions import FencedError, InjectedFaultError, RecoveryError
from repro.faults import fault_point
from repro.obs.metrics import count as _count
from repro.recovery.epoch import EpochState, epoch_path, read_epoch

WAL_FILENAME = "wal.jsonl"


def validate_tenant_name(name: str, error: type[Exception]) -> None:
    """Refuse tenant names that are not plain directory names.

    A spool keeps each tenant's WAL and checkpoints under
    ``<spool>/<tenant>/``, and both the session service and the
    replication verbs take the tenant name off the wire; anything
    path-like (separators, ``..``, absolute paths, NUL bytes) would let
    a client create directories and write files outside the spool.
    Raises ``error`` (the caller's typed rejection) naming the tenant.
    """
    if (
        not name
        or name in (".", "..")
        or "\x00" in name
        or "\\" in name
        or name != Path(name).name
    ):
        raise error(
            f"invalid tenant name {name!r}: tenant names must be plain "
            f"directory names (no separators, traversal, or NUL bytes)"
        )


def spool_tenants(spool: "str | os.PathLike[str]") -> list[str]:
    """The tenants a spool holds, sorted: directories with a WAL file.

    State renamed aside by checkpoint quarantine or a replica re-seed
    (``*.quarantined*``) is evidence to inspect, not a tenant to ship,
    follow or promote.
    """
    spool = Path(spool)
    if not spool.is_dir():
        return []
    return sorted(
        entry.name
        for entry in spool.iterdir()
        if entry.is_dir()
        and (entry / WAL_FILENAME).exists()
        and ".quarantined" not in entry.name
    )


def _canonical(payload: dict) -> bytes:
    """The byte string the frame CRC is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def framed(payload: dict) -> dict:
    """``payload`` plus its ``crc`` field: one record as a framed object."""
    return {**payload, "crc": zlib.crc32(_canonical(payload))}


def unframe(frame: object) -> dict:
    """Verify a framed object's CRC; returns the payload without it.

    Raises ``ValueError`` on a missing or mismatching CRC.
    """
    if not isinstance(frame, dict) or "crc" not in frame:
        raise ValueError("frame is not a CRC-framed record object")
    payload = {key: value for key, value in frame.items() if key != "crc"}
    if zlib.crc32(_canonical(payload)) != frame["crc"]:
        raise ValueError("CRC mismatch")
    return payload


def frame_record(payload: dict) -> bytes:
    """Serialise one record payload into a CRC32-framed JSONL line."""
    return json.dumps(framed(payload), sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    ) + b"\n"


@dataclass(frozen=True)
class WalRecord:
    """One committed operation: op name, arguments, and object lineage."""

    lsn: int
    op: str
    args: dict
    inputs: tuple[str, ...]
    output: str
    #: Replication term the writer committed this record under. Plain
    #: (never-replicated) sessions stay at epoch 0 and omit the field
    #: from their frames, so pre-replication logs read back unchanged.
    epoch: int = 0

    @property
    def mutates(self) -> bool:
        """Whether this record mutates an existing object in place.

        In-place operations (``Select(..., in_place=True)``,
        ``OrderBy(..., in_place=True)``) log their target as both input
        and output; replay re-applies them to the already-catalogued
        object instead of publishing a new one.
        """
        return self.output in self.inputs

    def payload(self) -> dict:
        """The record as the dict its frame's CRC covers."""
        payload = {
            "lsn": self.lsn,
            "op": self.op,
            "args": self.args,
            "inputs": list(self.inputs),
            "output": self.output,
        }
        if self.epoch:
            payload["epoch"] = self.epoch
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "WalRecord":
        """The record a verified payload describes (inverse of :meth:`payload`)."""
        return cls(
            lsn=int(payload["lsn"]),
            op=str(payload["op"]),
            args=payload.get("args") or {},
            inputs=tuple(payload.get("inputs") or ()),
            output=str(payload["output"]),
            epoch=int(payload.get("epoch", 0)),
        )


@dataclass
class WalTail:
    """Where a WAL scan stopped: the cursor every reader resumes from.

    ``records`` is the LSN of the last valid record, ``valid_bytes`` the
    length of the valid prefix and ``epoch`` the last record's epoch.
    ``torn`` and ``reason`` say why the latest scan stopped short of the
    end of the file, so a writer can truncate the torn suffix.
    """

    records: int = 0
    valid_bytes: int = 0
    epoch: int = 0
    torn: bool = False
    reason: "str | None" = None

    def advance(self, record: WalRecord, nbytes: int) -> None:
        """Move past one valid frame of ``nbytes`` bytes holding ``record``."""
        self.records = record.lsn
        self.valid_bytes += nbytes
        self.epoch = record.epoch


def decode_line(line: bytes, expected_lsn: int) -> WalRecord:
    """Decode and verify one framed line; raises ``ValueError`` on damage."""
    record = WalRecord.from_payload(unframe(json.loads(line.decode("utf-8"))))
    if record.lsn != expected_lsn:
        raise ValueError(
            f"LSN {record.lsn} breaks monotonic sequence (expected {expected_lsn})"
        )
    return record


def iter_wal(path: "str | os.PathLike[str]", tail: WalTail) -> Iterator[WalRecord]:
    """Yield the valid frames of a WAL file past ``tail``, one at a time.

    The scan resumes at ``tail.valid_bytes`` expecting LSN
    ``tail.records + 1`` (a fresh :class:`WalTail` reads from byte 0)
    and stops at the first unterminated, unparsable, CRC-failing or
    out-of-sequence frame. ``tail`` advances past each yielded record,
    so a later scan picks up what was appended since, and once the
    iterator is exhausted it says why the scan stopped. A missing file
    yields nothing. Only one decoded record is alive at a time, so a
    replay's memory does not grow with the length of the log.
    """
    tail.torn = False
    tail.reason = None
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return
    with handle:
        handle.seek(tail.valid_bytes)
        for raw in handle:
            if raw[-1:] != b"\n":
                # No terminator: a torn final write (or one in flight).
                tail.torn = True
                tail.reason = "unterminated final frame"
                return
            if raw == b"\n":
                tail.valid_bytes += 1
                continue
            try:
                record = decode_line(raw[:-1], expected_lsn=tail.records + 1)
            except (ValueError, KeyError, TypeError, UnicodeDecodeError) as error:
                tail.torn = True
                tail.reason = f"invalid frame after LSN {tail.records}: {error}"
                return
            tail.advance(record, len(raw))
            yield record


def read_wal(path: "str | os.PathLike[str]") -> tuple[list[WalRecord], WalTail]:
    """Read the valid prefix of a WAL file: ``(records, tail)``.

    The list form of :func:`iter_wal`, for callers that need every
    record at once.
    """
    tail = WalTail()
    records = list(iter_wal(path, tail))
    return records, tail


def open_for_append(path: "str | os.PathLike[str]", tail: WalTail):
    """Open a WAL for appending after the valid prefix ``tail`` scanned.

    A torn suffix was never committed (its operation raised or the
    process died mid-write), so it is cut off: new frames follow the
    valid prefix instead of garbage.
    """
    if tail.torn:
        with open(path, "r+b") as handle:
            handle.truncate(tail.valid_bytes)
    return open(path, "ab")


class WriteAheadLog:
    """An append-only, fsync'd, CRC32-framed JSONL operation log.

    Thread-safe; one instance per durable session. ``tail`` is the
    scan of the existing file that the caller already made (a replay,
    a follower's applied prefix, or an empty :class:`WalTail` for a
    fresh directory): the writer resumes the LSN sequence after it and
    truncates the torn suffix it found, without reading the file again.
    """

    def __init__(
        self, path: "str | os.PathLike[str]", tail: WalTail, fsync: bool = True
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._lock = threading.Lock()
        # The writer's replication term is fixed at open: the epoch the
        # directory held when this session armed. Promotion advances the
        # on-disk epoch (or fences it outright); ``append`` notices via
        # a cheap stat and refuses to commit at a superseded term.
        state = read_epoch(self.path.parent)
        self.epoch = state.epoch
        self._epoch_state = state
        self._epoch_stat: "tuple[int, int] | None" = None
        self._last_lsn = tail.records
        self.recovered_torn_tail = tail.torn
        self._handle = open_for_append(self.path, tail)
        self.appends = 0

    @property
    def last_lsn(self) -> int:
        """LSN of the newest committed record (0 for an empty log)."""
        return self._last_lsn

    def _check_fence(self) -> None:
        """Refuse to append once this directory's epoch has moved on.

        A missing ``EPOCH.json`` (the never-replicated common case) is
        one failed ``stat`` — the file's contents are only re-read when
        its stat signature changes.
        """
        path = epoch_path(self.path.parent)
        try:
            stat = os.stat(path)
        except FileNotFoundError:
            if self.epoch > 0:
                # The epoch file vanished out from under an epoch>0
                # writer — treat as unreadable state, not as epoch 0.
                raise FencedError(str(self.path), self.epoch, self.epoch)
            return
        signature = (stat.st_mtime_ns, stat.st_size)
        if signature != self._epoch_stat:
            self._epoch_state = read_epoch(self.path.parent)
            self._epoch_stat = signature
        state: EpochState = self._epoch_state
        if state.fenced or state.epoch > self.epoch:
            raise FencedError(str(self.path), self.epoch, state.epoch)

    def append(self, op: str, args: dict, inputs: Iterable[str], output: str) -> int:
        """Commit one operation record; returns its LSN.

        The frame is written, flushed, and (by default) ``fsync``'d
        before returning — callers publish the operation's result to
        the catalog only after this returns, making the on-disk record
        the commit point. Fault sites: ``recovery.wal.append`` fails
        the append cleanly; ``recovery.wal.torn_write`` writes half a
        frame first (a simulated crash mid-``write``).
        """
        if self._handle.closed:
            raise RecoveryError(f"write-ahead log {self.path} was used after close()")
        with self._lock:
            self._check_fence()
            fault_point("recovery.wal.append")
            lsn = self._last_lsn + 1
            record = WalRecord(lsn, op, args, tuple(inputs), output, self.epoch)
            data = frame_record(record.payload())
            try:
                fault_point("recovery.wal.torn_write")
            except InjectedFaultError:
                self._handle.write(data[: max(1, len(data) // 2)])
                self._handle.flush()
                os.fsync(self._handle.fileno())
                raise
            self._handle.write(data)
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self._last_lsn = lsn
            self.appends += 1
        _count("recovery.wal.appends")
        return lsn

    def close(self) -> None:
        """Flush and close the underlying file handle."""
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def stats(self) -> dict:
        """Append/LSN counters for ``Ringo.health()["recovery"]``."""
        return {
            "path": str(self.path),
            "appends": self.appends,
            "last_lsn": self._last_lsn,
            "recovered_torn_tail": self.recovered_torn_tail,
            "epoch": self.epoch,
        }


class SessionDurability:
    """The durable state one armed session owns: its directory and WAL."""

    def __init__(self, directory: "str | os.PathLike[str]", tail: WalTail) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(self.directory / WAL_FILENAME, tail)
        self.checkpoints_written = 0

    def close(self) -> None:
        """Close the WAL handle."""
        self.wal.close()

    def stats(self) -> dict:
        """The ``health()["recovery"]`` view of this session's durability."""
        return {
            "directory": str(self.directory),
            "wal": self.wal.stats(),
            "checkpoints_written": self.checkpoints_written,
        }
