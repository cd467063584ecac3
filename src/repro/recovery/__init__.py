"""repro.recovery — crash-consistent session durability.

Four cooperating pieces give an interactive session restart
resilience (see ``docs/recovery.md`` for formats and a walkthrough):

* **the op table** (:mod:`repro.recovery.ops`) — ``SESSION_OPS``
  declares every session operation once (the ``run`` that calls the
  operator, durable/mutating marks, WAL encode/decode hooks); :data:`OPS`
  is its durable subset and :func:`apply_record` applies a committed
  record through it. The live session, crash replay, replication
  followers and ``Ringo.TailWal`` all execute operations through it.

* **provenance WAL** (:mod:`repro.recovery.wal`) — every
  catalog-mutating operation appends a CRC32-framed, ``fsync``'d JSONL
  record of the op, its arguments, and its input/output object ids
  *before* the result is published; the on-disk record is the commit
  point.
* **checksummed checkpoints** (:mod:`repro.recovery.checkpoint`) —
  ``Ringo.checkpoint()`` materialises the catalog with per-array CRC32
  digests and commits it with one atomic rename, so a crash
  mid-checkpoint never leaves a readable-but-wrong state.
* **replay recovery** (:mod:`repro.recovery.recover`) —
  ``Ringo.recover(dir)`` restores the newest *valid* checkpoint
  (quarantining anything that fails verification, typed
  :class:`~repro.exceptions.CorruptionError`) and re-applies the WAL
  through :func:`apply_record` to reconstruct everything else —
  the paper's provenance records doubling as a fault-tolerance
  mechanism, as in GraphX's lineage-based recovery.

Arm durability per session with ``Ringo(durability="state/")``;
resume one with ``Ringo.recover("state/")``.
"""

from repro.recovery.checkpoint import (
    array_crc,
    file_crc,
    find_checkpoints,
    load_manifest,
    quarantine,
    verify_and_load_object,
    write_checkpoint,
)
from repro.recovery.digest import (
    catalog_digest,
    graph_digest,
    object_digest,
    table_digest,
)
from repro.recovery.ops import OPS, apply_record
from repro.recovery.recover import recover_session
from repro.recovery.wal import (
    SessionDurability,
    WAL_FILENAME,
    WalRecord,
    WalTail,
    WriteAheadLog,
    read_wal,
)

__all__ = [
    "OPS",
    "SessionDurability",
    "WAL_FILENAME",
    "WalRecord",
    "WalTail",
    "WriteAheadLog",
    "apply_record",
    "array_crc",
    "catalog_digest",
    "file_crc",
    "find_checkpoints",
    "graph_digest",
    "load_manifest",
    "object_digest",
    "quarantine",
    "read_wal",
    "recover_session",
    "table_digest",
    "verify_and_load_object",
    "write_checkpoint",
]
