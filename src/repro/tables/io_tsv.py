"""TSV input/output (paper §2.5 / §4.1, ``ringo.LoadTableTSV``).

The loader accepts the paper's call shape — a schema plus a path. It
parses the whole file in one numpy scan: one pass finds every
separator and newline, and each column converts from the byte offsets
in bulk. Whatever that scan cannot vouch for (comments, blank lines,
``\\r``, a torn or ragged row, a number outside the plain formats, an
armed fault plan) goes to the per-row loop, which gives the same table
or the exact error the loader has always raised.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import CorruptInputError, SchemaError
from repro.faults import active_plan
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.spans import enabled as _tracing_enabled
from repro.obs.spans import trace
from repro.tables.schema import ColumnType, Schema
from repro.tables.strings import StringPool, default_pool
from repro.tables.table import Table

# Zero bytes around the file image, so a fixed-width window over any
# field (right-aligned for ints, left-aligned otherwise) stays in bounds.
_PAD = 64
# The widest FLOAT field the bulk cast takes, and the widest STRING
# field grouped by its packed bytes (wider ones group through a dict).
_MAX_WIDTH = _PAD
# ``-?[0-9]{1,18}`` always fits an int64.
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)[::-1]
_MIX = np.uint64(0x9E3779B97F4A7C15)


class _Reject(Exception):
    """The bulk scan cannot vouch for a file; the message names why."""


def _classify(value: str) -> str:
    try:
        int(value)
        return "int"
    except ValueError:
        pass
    try:
        float(value)
        return "float"
    except ValueError:
        return "string"


def infer_schema_tsv(
    path: "str | os.PathLike[str]",
    sep: str = "\t",
    has_header: bool = False,
    comment: str = "#",
    sample_rows: int = 1000,
) -> Schema:
    """Infer a schema from a delimited file's first ``sample_rows`` rows.

    Per column, types widen int → float → string. Column names come
    from the header when ``has_header=True``, else ``col0, col1, ...``.

    >>> import tempfile, os
    >>> fd, name = tempfile.mkstemp(); os.close(fd)
    >>> _ = open(name, "w").write("1\\t2.5\\tabc\\n")
    >>> [t.value for _, t in infer_schema_tsv(name)]
    ['int', 'float', 'string']
    >>> os.unlink(name)
    """
    header: list[str] | None = None
    kinds: list[str] | None = None
    sampled = 0
    rank = {"int": 0, "float": 1, "string": 2}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n").rstrip("\r")
            if not line or (comment and line.startswith(comment)):
                continue
            fields = line.split(sep)
            if has_header and header is None:
                header = fields
                continue
            if kinds is None:
                kinds = ["int"] * len(fields)
            if len(fields) != len(kinds):
                raise SchemaError(
                    f"{path}: inconsistent field count during inference "
                    f"({len(fields)} vs {len(kinds)})"
                )
            for index, field in enumerate(fields):
                kind = _classify(field)
                if rank[kind] > rank[kinds[index]]:
                    kinds[index] = kind
            sampled += 1
            if sampled >= sample_rows:
                break
    if kinds is None:
        raise SchemaError(f"{path}: no data rows to infer a schema from")
    if header is not None:
        if len(header) != len(kinds):
            raise SchemaError(f"{path}: header width disagrees with data")
        names = header
    else:
        names = [f"col{i}" for i in range(len(kinds))]
    return Schema(list(zip(names, kinds)))


def load_table_tsv(
    schema: "Schema | Sequence[tuple[str, object]] | None",
    path: "str | os.PathLike[str]",
    sep: str = "\t",
    has_header: bool = False,
    comment: str = "#",
    pool: StringPool | None = None,
) -> Table:
    """Load a delimited text file into a :class:`Table`.

    Mirrors ``ringo.LoadTableTSV(schema, 'posts.tsv')``. Lines starting
    with ``comment`` and blank lines are skipped; ``has_header=True``
    skips the first data line. Passing ``schema=None`` infers one from
    the file via :func:`infer_schema_tsv`.

    >>> import tempfile, os
    >>> fd, name = tempfile.mkstemp(); os.close(fd)
    >>> _ = open(name, "w").write("1\\tx\\n2\\ty\\n")
    >>> table = load_table_tsv([("id", "int"), ("tag", "string")], name)
    >>> table.num_rows
    2
    >>> os.unlink(name)
    """
    if schema is None:
        schema = infer_schema_tsv(
            path, sep=sep, has_header=has_header, comment=comment
        )
    elif not isinstance(schema, Schema):
        schema = Schema(schema)
    pool = pool if pool is not None else default_pool()
    with trace("io.load_tsv", file=os.fspath(path)) as span:
        try:
            table = _load_bulk(schema, path, sep, has_header, comment, pool)
            span.set_tag("path", "bulk")
        except _Reject as reject:
            span.set_tag("path", "rows")
            span.set_tag("reason", str(reject))
            if _tracing_enabled():
                _metrics_registry().counter("io.tsv.row_path").inc()
            table = _load_rows(schema, path, sep, has_header, comment, pool)
        span.set_tag("rows", table.num_rows)
        return table


def _load_bulk(
    schema: Schema,
    path: "str | os.PathLike[str]",
    sep: str,
    has_header: bool,
    comment: str,
    pool: StringPool,
) -> Table:
    """Parse the whole file with numpy; raise :class:`_Reject` on doubt.

    Every check runs before the first string is interned, so a
    rejected file leaves ``pool`` exactly as it found it.
    """
    if active_plan() is not None:
        raise _Reject("fault_plan")  # io.tsv.parse_row fires per row
    if len(sep) != 1 or not sep.isascii() or sep in "\n\r\0":
        raise _Reject("sep")
    with open(path, "rb") as handle:
        data = handle.read()
    if b"\r" in data:
        raise _Reject("cr")  # text mode reads a lone \r as a line break
    if b"\0" in data:
        raise _Reject("nul")  # fixed-width byte strings drop trailing NULs
    if data and not data.endswith(b"\n"):
        raise _Reject("unterminated")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            raise _Reject("utf8") from None
    text = bytes(_PAD) + data + bytes(_PAD)
    del data
    buf = np.frombuffer(text, dtype=np.uint8)

    delims = np.flatnonzero((buf == ord(sep)) | (buf == ord("\n")))
    is_newline = buf[delims] == ord("\n")
    line_ends = delims[is_newline]
    line_starts = np.empty_like(line_ends)
    line_starts[:1] = _PAD
    line_starts[1:] = line_ends[:-1] + 1
    skipped = line_starts == line_ends
    if comment:
        skipped |= _starts_with(buf, line_starts, comment.encode("utf-8"))
    if skipped.any():
        raise _Reject("comment_or_blank")
    first = _PAD
    if has_header and len(line_ends):
        header_delims = int(np.searchsorted(delims, line_ends[0])) + 1
        delims, is_newline = delims[header_delims:], is_newline[header_delims:]
        first = int(line_ends[0]) + 1
    width = len(schema)
    rows = int(np.count_nonzero(is_newline))
    if len(delims) != rows * width or (
        rows and not is_newline.reshape(rows, width)[:, -1].all()
    ):
        raise _Reject("field_count")
    ends = delims.reshape(rows, width)
    starts = np.empty_like(delims)
    starts[:1] = first
    starts[1:] = delims[:-1] + 1
    starts = starts.reshape(rows, width)

    columns: dict[str, object] = {}
    strings: dict[str, tuple[list[str], np.ndarray]] = {}
    for index, (name, col_type) in enumerate(schema):
        field_starts, field_ends = starts[:, index], ends[:, index]
        if col_type is ColumnType.INT:
            columns[name] = _parse_ints(buf, field_starts, field_ends)
        elif col_type is ColumnType.FLOAT:
            columns[name] = _parse_floats(buf, field_starts, field_ends)
        else:
            strings[name] = _group_strings(text, buf, field_starts, field_ends)
    for name, (values, group) in strings.items():
        columns[name] = pool.encode_many(values)[group]
    return Table.from_columns(columns, schema=schema, pool=pool)


def _starts_with(buf: np.ndarray, starts: np.ndarray, prefix: bytes) -> np.ndarray:
    """Which of the lines at ``starts`` begin with ``prefix`` (may over-match
    a line shorter than ``prefix``, which only costs a fallback)."""
    match = np.ones(len(starts), dtype=bool)
    last = len(buf) - 1
    for offset, byte in enumerate(prefix):
        match &= buf[np.minimum(starts + offset, last)] == byte
    return match


def _left_aligned(
    buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int
) -> np.ndarray:
    """Each field's bytes as one row of a ``(n, width)`` matrix, zero-padded."""
    fields = sliding_window_view(buf, width)[starts]
    fields[np.arange(width) >= lengths[:, None]] = 0
    return fields


def _parse_ints(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """INT fields matching ``-?[0-9]{1,18}``: a right-aligned digit matrix
    dotted with powers of ten."""
    if not len(starts):
        return np.empty(0, dtype=np.int64)
    lengths = ends - starts
    negative = buf[starts] == ord("-")
    digits = lengths - negative
    if digits.min() < 1 or digits.max() > _MAX_DIGITS:
        raise _Reject("int_format")
    width = int(digits.max())
    matrix = sliding_window_view(buf, width)[ends - width] - np.uint8(ord("0"))
    is_digit = np.arange(width) >= width - digits[:, None]
    if ((matrix > 9) & is_digit).any():
        raise _Reject("int_format")
    matrix[~is_digit] = 0
    values = matrix @ _POW10[-width:]
    return np.where(negative, -values, values)


def _parse_floats(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """FLOAT fields by one cast of their fixed-width bytes."""
    if not len(starts):
        return np.empty(0, dtype=np.float64)
    lengths = ends - starts
    width = int(lengths.max())
    if not 0 < width <= _MAX_WIDTH:
        raise _Reject("float_format")
    fields = _left_aligned(buf, starts, lengths, width).view(f"S{width}").ravel()
    try:
        return fields.astype(np.float64)
    except ValueError:
        raise _Reject("float_format") from None


def _group_strings(
    text: bytes, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> "tuple[list[str], np.ndarray]":
    """Distinct STRING values in order of first appearance, and each
    row's index into them.

    Fields up to ``_MAX_WIDTH`` bytes are packed into 64-bit words and
    grouped by ``np.unique`` on one hash per field; the grouping is then
    checked word for word, and a collision (or a wider field) groups
    through a dict instead. Either way interning the values in the
    returned order gives the codes the per-row loop gives.
    """
    lengths = ends - starts
    width = int(lengths.max()) if len(starts) else 0
    if width <= _MAX_WIDTH:
        whole_words = 8 * max(1, -(-width // 8))
        words = _left_aligned(buf, starts, lengths, whole_words).view("<u8")
        key = words[:, 0]
        for column in words.T[1:]:
            key = key * _MIX ^ column
        _, first, group = np.unique(key, return_index=True, return_inverse=True)
        if words.shape[1] == 1 or (words == words[first[group]]).all():
            order = np.argsort(first)
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            firsts = first[order].tolist()
            values = [
                text[start:end].decode("utf-8")
                for start, end in zip(starts[firsts].tolist(), ends[firsts].tolist())
            ]
            return values, rank[group]
    index: dict[bytes, int] = {}
    group = np.fromiter(
        (
            index.setdefault(text[start:end], len(index))
            for start, end in zip(starts.tolist(), ends.tolist())
        ),
        dtype=np.int64,
        count=len(starts),
    )
    return [value.decode("utf-8") for value in index], group


def _load_rows(
    schema: Schema,
    path: "str | os.PathLike[str]",
    sep: str,
    has_header: bool,
    comment: str,
    pool: StringPool,
) -> Table:
    """The per-row loop: the reference the bulk scan must equal, and the
    path for every file it rejects."""
    expected_fields = len(schema)
    raw_columns: list[list[str]] = [[] for _ in range(expected_fields)]
    skipped_header = not has_header
    # Hoisted so the per-row fault check costs nothing when no plan is
    # armed (the common case) and one dict lookup when one is.
    fault_plan = active_plan()
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            terminated = raw_line.endswith("\n")
            line = raw_line.rstrip("\n").rstrip("\r")
            if not line or (comment and line.startswith(comment)):
                continue
            if not skipped_header:
                skipped_header = True
                continue
            if fault_plan is not None:
                fault_plan.check("io.tsv.parse_row")
            fields = line.split(sep)
            if len(fields) != expected_fields:
                # A short, unterminated final row is a torn write
                # (the producer died mid-row), not a schema problem.
                if not terminated and len(fields) < expected_fields:
                    raise CorruptInputError(
                        os.fspath(path),
                        f"line {line_number}: final row truncated "
                        f"mid-write ({len(fields)} of "
                        f"{expected_fields} fields)",
                    )
                raise SchemaError(
                    f"{path}:{line_number}: expected {expected_fields} fields, "
                    f"got {len(fields)}"
                )
            for index, field in enumerate(fields):
                raw_columns[index].append(field)
    columns: dict[str, object] = {}
    for index, (name, col_type) in enumerate(schema):
        raw = raw_columns[index]
        try:
            if col_type is ColumnType.INT:
                columns[name] = np.array(raw, dtype=np.int64) if raw else np.empty(0, np.int64)
            elif col_type is ColumnType.FLOAT:
                columns[name] = np.array(raw, dtype=np.float64) if raw else np.empty(0, np.float64)
            else:
                columns[name] = raw  # encoded into pool codes by from_columns
        except ValueError as error:
            raise SchemaError(f"column {name!r}: {error}") from None
    return Table.from_columns(columns, schema=schema, pool=pool)


def save_table_tsv(
    table: Table,
    path: "str | os.PathLike[str]",
    sep: str = "\t",
    write_header: bool = False,
) -> int:
    """Write ``table`` as delimited text; returns the number of data rows.

    String cells are decoded; floats use ``repr`` so a round-trip through
    :func:`load_table_tsv` is exact. A table that would not read back
    as written raises :class:`SchemaError` naming the column and row,
    before the file is opened: a cell holding ``sep`` or a line break,
    a row starting with ``#`` (the loader's comment marker), or a row
    that renders as a blank line.
    """
    names = table.schema.names
    rendered: list[list[str]] = []
    for name, col_type in table.schema:
        if col_type is ColumnType.STRING:
            rendered.append(table.values(name))
        elif col_type is ColumnType.INT:
            rendered.append([str(v) for v in table.column(name).tolist()])
        else:
            rendered.append([repr(v) for v in table.column(name).tolist()])
    for name, cells in zip(names, rendered):
        joined = "".join(cells)
        if sep in joined or "\n" in joined or "\r" in joined:
            for row, cell in enumerate(cells):
                if sep in cell or "\n" in cell or "\r" in cell:
                    raise SchemaError(
                        f"column {name!r}, row {row}: {cell!r} holds the "
                        f"separator or a line break"
                    )
    lines = [sep.join(row) for row in zip(*rendered)]
    body = "\n".join(lines) + "\n" if lines else ""
    if body.startswith(("\n", "#")) or "\n\n" in body or "\n#" in body:
        row, line = next(
            (row, line) for row, line in enumerate(lines) if not line or line[0] == "#"
        )
        problem = "is empty" if not line else "starts with '#'"
        raise SchemaError(
            f"column {names[0]!r}, row {row}: the line {problem}, "
            f"which the loader skips"
        )
    header = sep.join(names)
    if write_header and (header.startswith("#") or "\n" in header or "\r" in header):
        raise SchemaError(f"header {header!r} would not read back as one header line")
    with open(path, "w", encoding="utf-8") as handle:
        if write_header:
            handle.write(header + "\n")
        handle.write(body)
    return table.num_rows
