"""Binary table snapshots (fast reload, the table analogue of
:mod:`repro.graphs.serialize`).

Tables serialise to ``.npz`` archives: one array per column (string
columns are decoded to a numpy unicode array so the snapshot is
pool-independent), the row ids, and the schema as parallel name/type
arrays.
"""

from __future__ import annotations

import os

import numpy as np

import zipfile

from repro.exceptions import CorruptInputError, SchemaError
from repro.faults import fault_point
from repro.obs.spans import trace
from repro.tables.schema import ColumnType, Schema
from repro.tables.strings import StringPool, default_pool
from repro.tables.table import Table

_FORMAT_VERSION = 1


def save_table_npz(table: Table, path: "str | os.PathLike[str]") -> None:
    """Write ``table`` to an ``.npz`` archive."""
    payload: dict[str, np.ndarray] = {
        "version": np.int64(_FORMAT_VERSION),
        "names": np.array(table.schema.names, dtype=np.str_),
        "types": np.array(
            [col_type.value for _, col_type in table.schema], dtype=np.str_
        ),
        "row_ids": np.asarray(table.row_ids),
    }
    for name, col_type in table.schema:
        if col_type is ColumnType.STRING:
            values = table.values(name)
            payload[f"col_{name}"] = np.array(values, dtype=np.str_)
            # numpy's fixed-width unicode dtype drops trailing NULs, so
            # record true lengths to re-pad on load.
            payload[f"len_{name}"] = np.array(
                [len(v) for v in values], dtype=np.int64
            )
        else:
            payload[f"col_{name}"] = table.column(name)
    np.savez(path, **payload)


def load_table_npz(
    path: "str | os.PathLike[str]", pool: StringPool | None = None
) -> Table:
    """Load a table saved by :func:`save_table_npz`.

    A truncated or garbled archive — or one whose arrays cannot be
    extracted — raises a typed
    :class:`~repro.exceptions.CorruptInputError` naming the file and
    the offending array, so callers (recovery in particular) can
    quarantine rather than crash on a low-level parse error.
    """
    fault_point("io.npz.load")
    current = None
    try:
        with trace("io.load_npz", file=str(path)), np.load(path) as archive:
            version = int(archive["version"])
            if version != _FORMAT_VERSION:
                raise SchemaError(f"unsupported table format version {version}")
            names = [str(n) for n in archive["names"]]
            types = [ColumnType.parse(str(t)) for t in archive["types"]]
            current = "row_ids"
            row_ids = archive["row_ids"]
            raw = {}
            lengths = {}
            for name in names:
                current = f"col_{name}"
                raw[name] = archive[current]
                if f"len_{name}" in archive.files:
                    current = f"len_{name}"
                    lengths[name] = archive[current]
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, KeyError, EOFError, OSError, ValueError) as error:
        raise CorruptInputError(
            os.fspath(path),
            f"not a readable table archive: {error}",
            array=current,
        )
    schema = Schema(list(zip(names, types)))
    pool = pool if pool is not None else default_pool()
    columns: dict[str, np.ndarray] = {}
    for name, col_type in schema:
        if col_type is ColumnType.STRING:
            values = [str(v) for v in raw[name]]
            if name in lengths:
                values = [
                    v.ljust(int(n), "\x00")
                    for v, n in zip(values, lengths[name])
                ]
            columns[name] = pool.encode_many(values)
        else:
            columns[name] = raw[name]
    return Table(schema, columns, pool=pool, row_ids=row_ids)
