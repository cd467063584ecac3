"""R010 fixture: the WAL append is always published and the temp dir is
committed or removed on every path (clean)."""

import os
import shutil

from repro.recovery.wal import WriteAheadLog


def commit(session, wal: WriteAheadLog, op, args, refs, result):
    output = f"table-{session.counter + 1}"
    wal.append(op, args, refs, output)
    return session._publish_as(output, result)


def write_checkpoint(root, payload):
    tmp = root / "checkpoint.tmp"
    tmp.mkdir()
    try:
        (tmp / "data.bin").write_bytes(payload)
        os.replace(tmp, root / "checkpoint")
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
