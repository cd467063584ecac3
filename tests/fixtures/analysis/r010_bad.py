"""R010 fixture: a fresh WAL append escapes a normal path unpublished."""

from repro.recovery.wal import WriteAheadLog


def commit(session, wal: WriteAheadLog, op, args, refs, result):
    output = f"table-{session.counter + 1}"
    wal.append(op, args, refs, output)
    if result is None:
        return None
    return session._publish_as(output, result)
