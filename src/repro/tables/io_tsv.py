"""TSV input/output (paper §2.5 / §4.1, ``ringo.LoadTableTSV``).

The loader accepts the paper's call shape — a schema plus a path. It
reads the file once and parses it with numpy in blocks of whole lines,
each small enough that its offset and value arrays stay in cache: a
pass finds every separator and newline, INT fields convert eight
digits at a time from 64-bit words read straight out of the text, and
FLOAT fields by one cast of their bytes. STRING fields are packed into
the same kind of words per block and grouped once for the whole column
by :func:`repro.tables.groupby.factorize`. Whatever the scan cannot
vouch for (comments, blank lines, ``\\r``, a torn or ragged row, a
number outside the plain formats, an armed fault plan) goes to the
per-row loop, which gives the same table or the exact error the loader
has always raised.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import CorruptInputError, SchemaError
from repro.faults import active_plan
from repro.obs.metrics import count
from repro.obs.spans import trace
from repro.tables.groupby import factorize
from repro.tables.schema import ColumnType, Schema
from repro.tables.strings import StringPool, default_pool
from repro.tables.table import Table

# Zero bytes around the file image, so a word or fixed-width window
# over any field (ending at it for ints, starting at it otherwise)
# stays in bounds.
_PAD = 64
# Bytes of text per block, cut at a newline: a block's offset, word and
# value arrays stay in L2 while it is scanned, checked and converted
# (on a 2 MB L2, 256 KB-512 KB blocks parsed fastest; 1 MB was a few
# per cent slower and 2 MB about ten).
_BLOCK = 1 << 19
# The widest FLOAT field the bulk cast takes, and the widest STRING
# field keyed by its packed words (wider ones group through a dict).
_MAX_WIDTH = _PAD
# ``-?[0-9]{1,18}`` always fits an int64: at most three words of digits.
_MAX_DIGITS = 18
_MIX = np.uint64(0x9E3779B97F4A7C15)
_NEWLINE = ord("\n")
_MINUS = ord("-")
# For a word holding ``k`` bytes of a field: a STRING field starts the
# word, so keep its low ``k`` bytes; an INT field's last digits end the
# word, so keep its high ``k`` bytes and put ``'0'`` in the ``8 - k``
# bytes in front of them.
_KEEP_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
_KEEP_HIGH = np.array([(2**64 - 1) >> 8 * (8 - k) << 8 * (8 - k) for k in range(9)], np.uint64)
_ZERO_FILL = np.array([0x3030303030303030 >> 8 * k for k in range(9)], np.uint64)
_TENS = np.array([1, 10**8, 10**16], dtype=np.uint64)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)
_THREES = np.uint64(0x3333333333333333)
_NIBBLE = np.uint64(4)
# (mask, multiplier, shift): digit pairs, then fours, then eights.
_EIGHT_DIGIT_STEPS = [
    (np.uint64(mask), np.uint64(multiplier), np.uint64(shift))
    for mask, multiplier, shift in (
        (0x0F0F0F0F0F0F0F0F, 10 * 2**8 + 1, 8),
        (0x00FF00FF00FF00FF, 100 * 2**16 + 1, 16),
        (0x0000FFFF0000FFFF, 10000 * 2**32 + 1, 32),
    )
]


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
            count("io.tsv.row_path")
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
    """Parse the file block by block with numpy; raise :class:`_Reject` on doubt.

    Every check runs before the first string is interned, so a
    rejected file leaves ``pool`` exactly as it found it. A doubt in
    one block does not end the scan: a later block may hold a doubt
    that ranks first (see :class:`_Scan`), and the reason raised is the
    one a scan of the whole file at once would name.
    """
    if active_plan() is not None:
        raise _Reject("fault_plan")  # io.tsv.parse_row fires per row
    if len(sep) != 1 or not sep.isascii() or sep in "\n\r\0":
        raise _Reject("sep")
    buf = _read_padded(path)
    start, end = _PAD, len(buf) - _PAD
    lines = 0
    for offset in range(start, end, _BLOCK):
        chunk = buf[offset : min(offset + _BLOCK, end)]
        if (chunk == ord("\r")).any():
            raise _Reject("cr")  # text mode reads a lone \r as a line break
        lines += int(np.count_nonzero(chunk == _NEWLINE))
    if start < end:
        body = buf[start:end]
        if body.min() == 0:
            raise _Reject("nul")  # zero bytes mark where a packed field ends
        if body[-1] != _NEWLINE:
            raise _Reject("unterminated")
        if body.max() >= 0x80:
            try:
                str(memoryview(body), "utf-8")
            except UnicodeDecodeError:
                raise _Reject("utf8") from None
    prefix = comment.encode("utf-8")
    if has_header and start < end:
        header_end = _line_end(buf, start)
        _check_lines(buf, prefix, np.array([start]), np.array([header_end]))
        start = header_end + 1
        lines -= 1
    scan = _Scan(buf, schema, ord(sep), prefix, lines)
    while start < end:
        stop = _line_end(buf, min(start + _BLOCK, end) - 1) + 1
        scan.block(start, stop)
        start = stop
    if scan.doubt is not None:
        raise _Reject(scan.doubt[1])

    columns = scan.columns
    strings = {name: _group_strings(buf, column) for name, column in scan.strings.items()}
    for name, (values, group) in strings.items():
        columns[name] = pool.encode_many(values)[group]
    return Table.from_columns(columns, schema=schema, pool=pool)


def _read_padded(path: "str | os.PathLike[str]") -> np.ndarray:
    """The file's bytes with ``_PAD`` zero bytes on either side."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        buf = np.empty(size + 2 * _PAD, dtype=np.uint8)
        got = handle.readinto(memoryview(buf)[_PAD : _PAD + size])
        rest = handle.read()
    if got != size or rest:  # not a regular file, or it changed size
        data = buf[_PAD : _PAD + got].tobytes() + rest
        buf = np.empty(len(data) + 2 * _PAD, dtype=np.uint8)
        buf[_PAD : _PAD + len(data)] = np.frombuffer(data, dtype=np.uint8)
    buf[:_PAD] = 0
    buf[len(buf) - _PAD :] = 0
    return buf


def _line_end(buf: np.ndarray, offset: int) -> int:
    """Offset of the first newline at or after ``offset`` (there is one:
    the file ends with a newline)."""
    width = 256
    while True:
        hits = np.flatnonzero(buf[offset : offset + width] == _NEWLINE)
        if len(hits):
            return offset + int(hits[0])
        offset += width
        width *= 2


class _Strings:
    """A STRING column while the blocks pass: each field's offsets, and
    its bytes packed into little-endian 64-bit words, zero past its end
    (``packed[j]`` holds word ``j`` of every field; it is added, zeroed,
    when a block first needs it). ``wide`` is set once a field is wider
    than ``_MAX_WIDTH``, and then the words stop."""

    def __init__(self, rows: int) -> None:
        self.starts = np.empty(rows, dtype=np.int64)
        self.ends = np.empty(rows, dtype=np.int64)
        self.packed = [np.zeros(rows, dtype=np.uint64)]
        self.wide = False

    def pack(self, words: np.ndarray, rows: slice) -> None:
        """Pack the fields of ``rows`` from ``words``, the byte-offset view."""
        starts, ends = self.starts[rows], self.ends[rows]
        lengths = ends - starts
        width = int(lengths.max())
        if width > _MAX_WIDTH:
            self.wide = True
            return
        for word in range(-(-width // 8)):
            if word == len(self.packed):
                self.packed.append(np.zeros(len(self.starts), dtype=np.uint64))
            kept = np.minimum(lengths, 8 * (word + 1))
            kept -= 8 * word
            np.maximum(kept, 0, out=kept)
            np.bitwise_and(
                words[starts + 8 * word], _KEEP_LOW[kept], out=self.packed[word][rows]
            )


class _Scan:
    """The state of one bulk load across its blocks.

    Converted INT and FLOAT values go straight into ``columns``, and
    STRING fields into their :class:`_Strings`. ``doubt`` is the
    best-ranked ``(rank, reason)`` found so far: a scan of the whole
    file at once checks blank and comment lines (raised at once), then
    the field count (rank 0), then the columns in schema order (rank
    ``1 + i``).
    """

    def __init__(
        self, buf: np.ndarray, schema: Schema, sep: int, comment: bytes, rows: int
    ) -> None:
        self.buf = buf
        # Every byte offset as the start of a little-endian 64-bit word.
        self.words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
        self.schema = schema
        self.sep = sep
        self.comment = comment
        self.ints = [i for i, (_, t) in enumerate(schema) if t is ColumnType.INT]
        self.columns = {
            name: np.empty(rows, dtype=t.dtype)
            for name, t in schema
            if t is not ColumnType.STRING
        }
        self.strings = {
            name: _Strings(rows) for name, t in schema if t is ColumnType.STRING
        }
        self.row = 0
        self.doubt: "tuple[int, str] | None" = None

    def doubt_at(self, rank: int, reason: str) -> None:
        if self.doubt is None or rank < self.doubt[0]:
            self.doubt = (rank, reason)

    def block(self, start: int, stop: int) -> None:
        """Scan, check and convert the whole lines in ``buf[start:stop]``."""
        buf, width = self.buf, len(self.schema)
        chunk = buf[start:stop]
        delims = np.flatnonzero((chunk == self.sep) | (chunk == _NEWLINE))
        delims += start
        rows = int(np.count_nonzero(chunk == _NEWLINE))
        first, self.row = self.row, self.row + rows
        # Each line must hold ``width`` delimiters, the last a newline.
        grid = delims.reshape(rows, width) if len(delims) == rows * width else None
        if grid is not None and (buf[grid[:, -1]] == _NEWLINE).all():
            line_ends = grid[:, -1]
        else:
            line_ends, grid = delims[buf[delims] == _NEWLINE], None
        line_starts = np.empty_like(line_ends)
        line_starts[0] = start
        line_starts[1:] = line_ends[:-1] + 1
        _check_lines(buf, self.comment, line_starts, line_ends)
        if grid is None:
            self.doubt_at(0, "field_count")
        if self.doubt is not None and self.doubt[0] == 0:
            return  # no column can outrank it

        def field_starts(index: int) -> np.ndarray:
            return grid[:, index - 1] + 1 if index else line_starts

        rows_here = slice(first, self.row)
        if self.ints:
            starts = np.stack([field_starts(index) for index in self.ints])
            values, bad = _parse_ints(buf, self.words, starts, grid.T[self.ints])
            for index, column in zip(self.ints, values):
                self.columns[self.schema.names[index]][rows_here] = column
            if bad is not None:
                self.doubt_at(1 + self.ints[bad], "int_format")
        for index, (name, col_type) in enumerate(self.schema):
            if col_type is ColumnType.FLOAT:
                try:
                    self.columns[name][rows_here] = _parse_floats(
                        buf, field_starts(index), grid[:, index]
                    )
                except _Reject as reject:
                    self.doubt_at(1 + index, str(reject))
            elif col_type is ColumnType.STRING:
                column = self.strings[name]
                column.starts[rows_here] = field_starts(index)
                column.ends[rows_here] = grid[:, index]
                if not column.wide:
                    column.pack(self.words, rows_here)


def _check_lines(
    buf: np.ndarray, comment: bytes, line_starts: np.ndarray, line_ends: np.ndarray
) -> None:
    """Blank and comment lines rank first, so they end the scan at once."""
    skipped = line_starts == line_ends
    if comment:
        skipped |= _starts_with(buf, line_starts, comment)
    if skipped.any():
        raise _Reject("comment_or_blank")


def _starts_with(buf: np.ndarray, starts: np.ndarray, prefix: bytes) -> np.ndarray:
    """Which of the lines at ``starts`` begin with ``prefix`` (may over-match
    a line shorter than ``prefix``, which only costs a fallback)."""
    match = np.ones(len(starts), dtype=bool)
    last = len(buf) - 1
    for offset, byte in enumerate(prefix):
        match &= buf[np.minimum(starts + offset, last)] == byte
    return match


def _parse_ints(
    buf: np.ndarray, words: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> "tuple[np.ndarray, int | None]":
    """INT fields matching ``-?[0-9]{1,18}``, eight digits a word.

    ``starts`` and ``ends`` are ``(columns, rows)``. Word ``j`` of a
    field is the eight bytes ending ``8 * j`` bytes before the field's
    end; its bytes in front of the digits are set to ``'0'``, every
    byte is checked to be a digit, and the eight digits convert at
    once. Returns the values and the index of the first column holding
    a field outside the format (or ``None``).
    """
    negative = buf[starts] == _MINUS
    digits = ends - starts
    digits -= negative
    valid = (digits.min(axis=1) >= 1) & (digits.max(axis=1) <= _MAX_DIGITS)
    if not valid.all():
        np.clip(digits, 1, _MAX_DIGITS, out=digits)  # still find the first bad column
    values = np.zeros(digits.shape, dtype=np.uint64)
    for word in range(-(-int(digits.max()) // 8)):
        kept = np.minimum(digits, 8 * (word + 1))
        kept -= 8 * word
        np.maximum(kept, 0, out=kept)
        packed = words[ends - 8 * (word + 1)]
        packed &= _KEEP_HIGH[kept]
        packed |= _ZERO_FILL[kept]
        valid &= _all_digits(packed)
        packed = _eight_digits(packed)
        packed *= _TENS[word]
        values += packed
    values = values.view(np.int64)
    np.negative(values, out=values, where=negative)
    bad = None if valid.all() else int(np.argmin(valid))
    return values, bad


def _all_digits(words: np.ndarray) -> np.ndarray:
    """Per row of ``words``, whether each byte of each word is an ASCII
    digit: its high nibble is 3, and adding 6 does not carry into it."""
    high = words & _HIGH_NIBBLES
    carried = words + _SIXES
    carried &= _HIGH_NIBBLES
    carried >>= _NIBBLE
    high |= carried
    return (high == _THREES).all(axis=1)


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The value of eight ASCII digits per word (in place), first digit
    in the low byte: three multiplies join digits into pairs, pairs into
    fours and fours into eights (Lemire)."""
    for mask, multiplier, shift in _EIGHT_DIGIT_STEPS:
        words &= mask
        words *= multiplier
        words >>= shift
    return words


def _parse_floats(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """FLOAT fields by one cast of their fixed-width bytes."""
    lengths = ends - starts
    width = int(lengths.max())
    if not 0 < width <= _MAX_WIDTH:
        raise _Reject("float_format")
    fields = sliding_window_view(buf, width)[starts]
    fields[np.arange(width) >= lengths[:, None]] = 0
    try:
        return fields.view(f"S{width}").ravel().astype(np.float64)
    except ValueError:
        raise _Reject("float_format") from None


def _group_strings(buf: np.ndarray, column: _Strings) -> "tuple[list[str], np.ndarray]":
    """Distinct STRING values in order of first appearance, and each
    row's index into them.

    Fields up to ``_MAX_WIDTH`` bytes are grouped by :func:`factorize`
    on one 64-bit key folded from their packed words; the grouping is
    then checked word for word against each group's first field, and a
    collision (or a wider field) groups through a dict instead. Either
    way interning the values in the returned order gives the codes the
    per-row loop gives.
    """
    text = memoryview(buf)
    starts, ends = column.starts, column.ends
    if not column.wide:
        key = column.packed[0]
        for word in column.packed[1:]:
            # A word past a field's end is zero and leaves its key alone.
            key = np.where(word != 0, key * _MIX ^ word, key)
        group, firsts = factorize(key)
        if len(column.packed) == 1 or all(
            (word == word[firsts][group]).all() for word in column.packed
        ):
            values = [
                str(text[start:end], "utf-8")
                for start, end in zip(starts[firsts].tolist(), ends[firsts].tolist())
            ]
            return values, group
    index: dict[bytes, int] = {}
    group = np.fromiter(
        (
            index.setdefault(text[start:end].tobytes(), len(index))
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
