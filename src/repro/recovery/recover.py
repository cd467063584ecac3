"""Replay recovery: checkpoint restore + WAL-suffix re-execution.

:func:`recover_session` reconstructs a crashed session's catalog in
three stages:

1. **Checkpoint selection** — scan ``checkpoints/`` newest-first; the
   first checkpoint whose manifest parses and passes its self-CRC wins.
   Invalid checkpoints are quarantined (renamed aside) and counted.
2. **Verified restore** — every artifact in the chosen checkpoint is
   checksum-verified (whole file + per array) before it enters the
   catalog. A corrupt artifact is quarantined with a typed
   :class:`~repro.exceptions.CorruptionError` — never loaded silently —
   and its object falls through to stage 3.
3. **Replay** — WAL records are re-applied in LSN order by
   :func:`repro.recovery.ops.apply_record`, through the same op-table
   ``run`` the live session used: records newer than the checkpoint's
   watermark rebuild the suffix; older records rebuild objects the
   checkpoint lost to quarantine (provenance as fault tolerance, the
   GraphX lineage idea). Determinism of the operators — persistent row
   ids included — guarantees the replayed catalog matches the original.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.exceptions import CorruptionError, RecoveryError, ReplayError
from repro.obs.metrics import count as _count
from repro.obs.spans import trace as _obs_trace
from repro.recovery import ops as _ops
from repro.recovery.checkpoint import (
    MANIFEST_NAME,
    find_checkpoints,
    load_manifest,
    quarantine,
    verify_and_load_object,
)
from repro.recovery.wal import WAL_FILENAME, WalTail, iter_wal


def recover_session(
    ringo_cls,
    directory: "str | os.PathLike[str]",
    strict: bool = False,
    arm: bool = True,
    **session_kwargs,
):
    """Reconstruct a session from ``directory``: ``(session, tail)``.

    See the module docstring for the three recovery stages. With
    ``strict=True`` any object that can be neither checksum-verified
    nor re-derived from the WAL raises; the default records it under
    ``health()["recovery"]["last_recovery"]["unrecovered"]`` instead.

    ``tail`` is where the replay scan stopped. The armed session's
    writer resumes from it, so the WAL is read once. ``arm=False``
    reconstructs the catalog but leaves the session *unarmed* — it
    holds no WAL handle and commits nothing. Replication followers use
    this: the replica applies shipped records to the on-disk WAL itself,
    advancing ``tail``, and keeps the in-memory session as a read-only
    mirror, arming it from ``tail`` only at promotion.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise RecoveryError(f"no durability directory at {directory}")
    session = ringo_cls(**session_kwargs)
    report: dict = {
        "directory": str(directory),
        "checkpoint": None,
        "invalid_checkpoints": 0,
        "restored_objects": 0,
        "replayed_ops": 0,
        "wal_records": 0,
        "wal_torn_tail": False,
        "quarantined": [],
        "unrecovered": [],
    }
    with _obs_trace("recovery.recover", directory=str(directory)):
        try:
            tail = _recover_into(session, directory, report, strict=strict)
            if arm:
                session._arm_durability(directory, tail)
        except BaseException:
            session.close()
            raise
    session._recovery_report = report
    return session, tail


def _recover_into(session, directory: Path, report: dict, strict: bool) -> WalTail:
    manifest = None
    chosen: "Path | None" = None
    from_checkpoint: set[str] = set()
    for candidate in find_checkpoints(directory):
        try:
            manifest = load_manifest(candidate)
        except CorruptionError as error:
            moved = quarantine(candidate)
            report["invalid_checkpoints"] += 1
            report["quarantined"].append(
                {
                    "artifact": str(candidate / MANIFEST_NAME),
                    "moved_to": str(moved),
                    "error": str(error),
                }
            )
            _count("recovery.quarantined_objects")
            continue
        chosen = candidate
        break

    if chosen is not None:
        report["checkpoint"] = chosen.name
        for name in sorted(manifest["objects"], key=_ops.name_suffix):
            entry = manifest["objects"][name]
            if not entry.get("stored", False):
                continue  # replay-only object; stage 3 rebuilds it
            try:
                obj = verify_and_load_object(chosen, name, entry, session.pool)
            except CorruptionError as error:
                artifact = chosen / entry["file"]
                moved = quarantine(artifact) if artifact.exists() else None
                report["quarantined"].append(
                    {
                        "artifact": str(artifact),
                        "moved_to": None if moved is None else str(moved),
                        "object": name,
                        "error": str(error),
                    }
                )
                _count("recovery.quarantined_objects")
                continue
            session._publish_as(name, obj)
            from_checkpoint.add(name)
            report["restored_objects"] += 1

    watermark = 0 if manifest is None else int(manifest.get("wal_lsn", 0))
    tail = WalTail()
    unavailable: set[str] = set()
    for record in iter_wal(directory / WAL_FILENAME, tail):
        if record.mutates:
            # Mutations baked into the checkpointed artifact must not
            # be re-applied; mutations newer than the watermark — or
            # targeting an object the checkpoint lost — must be.
            if record.output in from_checkpoint and record.lsn <= watermark:
                continue
        elif record.output in session._catalog:
            continue
        if any(name in unavailable for name in record.inputs):
            unavailable.add(record.output)
            report["unrecovered"].append(
                {"object": record.output, "lsn": record.lsn,
                 "error": "an input object could not be recovered"}
            )
            continue
        try:
            _ops.apply_record(session, record)
        except ReplayError:
            raise
        except Exception as error:
            if strict:
                raise ReplayError(record.lsn, record.op, f"replay failed: {error}")
            unavailable.add(record.output)
            report["unrecovered"].append(
                {"object": record.output, "lsn": record.lsn, "error": str(error)}
            )
            continue
        report["replayed_ops"] += 1
        _count("recovery.replayed_ops")
    report["wal_records"] = tail.records
    report["wal_torn_tail"] = tail.torn

    if manifest is not None:
        session._publish_counter = max(
            session._publish_counter, int(manifest.get("publish_counter", 0))
        )

    # A quarantined artifact whose object never made it back (no WAL
    # lineage to replay it from) is permanently lost — say so.
    for entry in report["quarantined"]:
        name = entry.get("object")
        if name and name not in session._catalog and not any(
            lost["object"] == name for lost in report["unrecovered"]
        ):
            report["unrecovered"].append(
                {"object": name, "lsn": None,
                 "error": "quarantined and no WAL lineage to replay"}
            )

    if strict and report["unrecovered"]:
        raise CorruptionError(
            str(directory),
            f"strict recovery: {len(report['unrecovered'])} object(s) unrecovered",
        )
    return tail
