"""The bulk TSV scan against the per-row loop it stands in for.

``load_table_tsv`` parses a file in one numpy scan and hands anything it
cannot vouch for to ``_load_rows``, the per-row loop. Parity means: for
every file, both give the same column arrays (bytes and dtypes) and
leave the same strings in a fresh pool, or both raise the same
exception type with the same message. Fixed cases pin each fallback
rule and which path it takes; hypothesis covers the mixtures.
"""

import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tables import io_tsv
from repro.tables.io_tsv import load_table_tsv
from repro.tables.schema import Schema
from repro.tables.strings import StringPool

SCHEMA = Schema([("id", "int"), ("score", "float"), ("tag", "string")])
EDGES = Schema([("src", "int"), ("dst", "int")])


def _outcome(load):
    """A loader's result as comparable data: columns + pool, or the error."""
    pool = StringPool()
    try:
        table = load(pool)
    except Exception as error:  # parity covers every exception type
        return ("error", type(error), str(error))
    columns = [
        (name, table.column(name).dtype.str, table.column(name).tobytes())
        for name in table.schema.names
    ]
    return ("table", columns, [pool.decode(code) for code in range(len(pool))])


def load_both(path, schema=SCHEMA, sep="\t", has_header=False, comment="#"):
    """(bulk outcome, loop outcome, whether the bulk call fell back)."""
    fell_back = []
    rows = io_tsv._load_rows

    def spy(*args):
        fell_back.append(True)
        return rows(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_tsv, "_load_rows", spy)
        bulk = _outcome(
            lambda pool: load_table_tsv(
                schema, path, sep=sep, has_header=has_header, comment=comment, pool=pool
            )
        )
    reference = _outcome(
        lambda pool: rows(schema, path, sep, has_header, comment, pool)
    )
    return bulk, reference, bool(fell_back)


def check(tmp_path, content, bulk_path, **kwargs):
    """Write ``content``; assert parity and which path the load took."""
    path = tmp_path / "case.tsv"
    if isinstance(content, str):
        content = content.encode("utf-8")
    path.write_bytes(content)
    bulk, reference, fell_back = load_both(path, **kwargs)
    assert bulk == reference
    assert fell_back is not bulk_path, "bulk" if bulk_path else "rows"
    return bulk


class TestBulkPath:
    def test_negative_and_widest_ints(self, tmp_path):
        big = 10**18 - 1
        result = check(
            tmp_path, f"-5\t0.0\tx\n{big}\t1.0\ty\n-{big}\t2.0\tz\n007\t3.0\tw\n-0\t4.0\tv\n",
            bulk_path=True,
        )
        assert result[0] == "table"

    def test_repr_and_special_floats(self, tmp_path):
        values = [repr(0.1), repr(-2.5e-300), "nan", "-nan", "inf", "-Infinity", "1e3", "5.", ".5"]
        text = "".join(f"{i}\t{v}\tt\n" for i, v in enumerate(values))
        check(tmp_path, text, bulk_path=True)

    def test_non_ascii_and_empty_strings(self, tmp_path):
        check(tmp_path, "1\t0.0\tüber\n2\t0.0\t\n3\t0.0\t日本語\n4\t0.0\tüber\n", bulk_path=True)

    def test_header_is_skipped_unchecked(self, tmp_path):
        check(tmp_path, "id\tscore\n1\t0.5\tx\n", bulk_path=True, has_header=True)

    def test_header_only_and_empty_file(self, tmp_path):
        check(tmp_path, "id\tscore\ttag\n", bulk_path=True, has_header=True)
        check(tmp_path, "", bulk_path=True)
        check(tmp_path, "", bulk_path=True, has_header=True)

    def test_strings_wider_than_packed_words(self, tmp_path):
        long = "x" * 200
        check(tmp_path, f"1\t0.0\t{long}\n2\t0.0\tshort\n3\t0.0\t{long}\n", bulk_path=True)

    def test_hash_collision_groups_exactly(self, tmp_path, monkeypatch):
        # With a zero multiplier the hash keeps only the last word, so
        # these two 9-byte strings collide and the check must catch it.
        monkeypatch.setattr(io_tsv, "_MIX", np.uint64(0))
        result = check(
            tmp_path, "1\t0.0\taaaaaaaaX\n2\t0.0\tbbbbbbbbX\n3\t0.0\taaaaaaaaX\n", bulk_path=True
        )
        assert result[2] == ["aaaaaaaaX", "bbbbbbbbX"]

    def test_custom_separator_and_comment(self, tmp_path):
        check(tmp_path, "1,0.5,a\n2,1.5,b\n", bulk_path=True, sep=",")
        tagged = Schema([("tag", "string"), ("id", "int")])
        check(tmp_path, "#a\t1\n", bulk_path=True, comment="", schema=tagged)
        check(tmp_path, "//a\t1\n/b\t2\n", bulk_path=False, comment="//", schema=tagged)

    def test_generated_edge_file_takes_the_bulk_path(self, tmp_path):
        rng = np.random.default_rng(3)
        src, dst = rng.integers(0, 10**6, 5000), rng.integers(0, 10**6, 5000)
        text = "".join(f"{u}\t{v}\n" for u, v in zip(src.tolist(), dst.tolist()))
        result = check(tmp_path, text, bulk_path=True, schema=EDGES)
        columns = dict((name, data) for name, _, data in result[1])
        assert np.frombuffer(columns["src"], np.int64).tolist() == src.tolist()


class TestRowsPath:
    @pytest.mark.parametrize(
        "value", [str(10**18), "-" + str(10**18), str(2**63 - 1), str(-(2**63 - 1)), str(2**63)]
    )
    def test_ints_past_eighteen_digits(self, tmp_path, value):
        check(tmp_path, f"{value}\t0.0\tx\n", bulk_path=False)

    @pytest.mark.parametrize("value", ["+5", " 5", "5 ", "1_000", "", "-", "5-", "1.0", "٣"])
    def test_ints_outside_the_plain_format(self, tmp_path, value):
        check(tmp_path, f"1\t0.0\tx\n{value}\t0.0\ty\n", bulk_path=False)

    @pytest.mark.parametrize("value", ["", "abc", "1e", "0x10", "nan(1)", "1.5\x1c"])
    def test_floats_the_cast_rejects(self, tmp_path, value):
        check(tmp_path, f"1\t{value}\tx\n", bulk_path=False)

    @pytest.mark.parametrize(
        "text",
        [
            "1\t0.0\tx\r\n2\t0.0\ty\r\n",  # CRLF
            "1\t0.0\tx\r2\t0.0\ty\n",  # a lone \r is a line break in text mode
            "# comment\n1\t0.0\tx\n",
            "1\t0.0\tx\n\n2\t0.0\ty\n",
            "\n",
        ],
    )
    def test_line_structure_the_scan_leaves_to_the_loop(self, tmp_path, text):
        check(tmp_path, text, bulk_path=False)

    def test_comment_before_header(self, tmp_path):
        check(tmp_path, "# c\nid\tscore\ttag\n1\t0.0\tx\n", bulk_path=False, has_header=True)

    @pytest.mark.parametrize(
        "text",
        [
            "1\t0.0\tx\n2\t0.0",  # torn final row: CorruptInputError
            "1\t0.0\tx\n2\t0.0\ty",  # unterminated but complete
            "1\t0.0\n",  # too few fields
            "1\t0.0\tx\ty\n",  # too many fields
            "1\t0.0\tx\n2\t0.0\ty\tz",  # unterminated with too many
            "1\t0.0\tx\t7\n2.5\tz\n",  # right total, wrong rows
        ],
    )
    def test_torn_and_ragged_rows(self, tmp_path, text):
        check(tmp_path, text, bulk_path=False)

    def test_unterminated_single_column(self, tmp_path):
        # No separator on the last line, so only the missing newline
        # tells the scan that a row is there.
        result = check(tmp_path, "a\nb", bulk_path=False, schema=Schema([("tag", "string")]))
        assert result[2] == ["a", "b"]

    def test_invalid_utf8_and_nul(self, tmp_path):
        result = check(tmp_path, b"1\t0.0\t\xff\xfe\n", bulk_path=False)
        assert result[1] is UnicodeDecodeError
        check(tmp_path, b"1\t0.0\ta\x00\n", bulk_path=False)

    def test_multi_character_separator(self, tmp_path):
        check(tmp_path, "1::0.5::a\n", bulk_path=False, sep="::")

    def test_armed_fault_plan_keeps_the_per_row_site(self, tmp_path):
        from repro.faults import inject_faults

        path = tmp_path / "rows.tsv"
        path.write_text("1\t0.0\tx\n2\t0.0\ty\n3\t0.0\tz\n")
        with inject_faults({"io.tsv.parse_row": 0.0}) as plan:
            assert load_table_tsv(SCHEMA, path).num_rows == 3
        assert plan.drawn["io.tsv.parse_row"] == 3


# ----------------------------------------------------------------------
# Generated files
# ----------------------------------------------------------------------

_INTS = st.one_of(
    st.integers(-(10**18) + 1, 10**18 - 1).map(str),
    st.integers(-(2**64), 2**64).map(str),
    st.sampled_from(["+1", " 2", "1_0", "", "-", "0", "-0", "007"]),
)
_FLOATS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(["nan", "-inf", "inf", "1e3", "1E-3", ".5", " 1.5", "1_0.5", "", "x"]),
)
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("#ab \t,üß日"), st.characters(blacklist_categories=("Cs",))
    ),
    max_size=12,
)
_ROW = st.tuples(_INTS, _FLOATS, _TEXT).map(list)
_TERMINATOR = st.sampled_from(["\n"] * 8 + ["\r\n", "\r"])


@st.composite
def tsv_files(draw):
    """A TSV body mixing clean rows with every kind of irregular line."""
    lines = []
    for row in draw(st.lists(_ROW, max_size=12)):
        kind = draw(st.sampled_from(["row"] * 6 + ["short", "long", "comment", "blank"]))
        if kind == "short":
            row = row[:2]
        elif kind == "long":
            row = row + ["extra"]
        elif kind == "comment":
            row = ["#" + row[0]] + row[1:]
        elif kind == "blank":
            row = [""]
        lines.append("\t".join(row) + draw(_TERMINATOR))
    body = "".join(lines)
    if body and draw(st.booleans()):
        body = body.rstrip("\n")  # possibly torn final row
    return body


@st.composite
def clean_files(draw):
    """Rows the bulk scan must accept: plain ints, repr floats, any text."""
    text = st.text(
        alphabet=st.characters(blacklist_characters="\t\n\r\x00", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=10,
    ).filter(lambda value: not value.startswith("#"))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(-(10**18) + 1, 10**18 - 1),
                st.floats(),
                text,
            ),
            max_size=20,
        )
    )
    return "".join(f"{i}\t{f!r}\t{s}\n" for i, f, s in rows)


def _check_generated(body, has_header=False):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gen.tsv"
        path.write_bytes(body.encode("utf-8"))
        bulk, reference, fell_back = load_both(path, has_header=has_header)
    assert bulk == reference
    return fell_back


@settings(max_examples=150, deadline=None)
@given(tsv_files(), st.booleans())
def test_generated_files_match_the_loop(body, has_header):
    _check_generated(body, has_header)


@settings(max_examples=60, deadline=None)
@given(clean_files())
def test_clean_generated_files_take_the_bulk_path(body):
    assert not _check_generated(body)


# ----------------------------------------------------------------------
# The block-wise word scan
# ----------------------------------------------------------------------


def bulk_reason(path, schema=SCHEMA, has_header=False, comment="#"):
    """The reason the bulk scan hands ``path`` to the per-row loop (the
    ``io.load_tsv`` span's ``reason`` tag), or ``None`` if it takes it."""
    try:
        io_tsv._load_bulk(schema, path, "\t", has_header, comment, StringPool())
    except io_tsv._Reject as reject:
        return str(reject)
    return None


def _rows(count, seed=0):
    """``count`` clean rows of SCHEMA with varied widths in every column."""
    rng = np.random.default_rng(seed)
    tags = ["q", "answer", "question", "JavaScript", "x" * 17, "ü" * 5, ""]
    return [
        f"{int(rng.integers(-10**rng.integers(1, 19) + 1, 10**rng.integers(1, 19)))}"
        f"\t{float(rng.normal()) * 10.0 ** int(rng.integers(-5, 6))!r}"
        f"\t{tags[int(rng.integers(len(tags)))]}\n"
        for _ in range(count)
    ]


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of a few lines, so every file spans many of them."""
    monkeypatch.setattr(io_tsv, "_BLOCK", 64)


class TestWordScan:
    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("digits", range(1, 19))
    def test_every_digit_count(self, tmp_path, digits, sign):
        rng = np.random.default_rng(digits)
        values = [sign + "9" * digits, sign + "1" + "0" * (digits - 1)] + [
            sign + "".join(rng.choice(list("0123456789"), digits)) for _ in range(30)
        ]
        result = check(tmp_path, "".join(f"{v}\t0.5\tx\n" for v in values), bulk_path=True)
        assert np.frombuffer(result[1][0][2], np.int64).tolist() == [int(v) for v in values]

    def test_leading_zeros_and_negative_zero(self, tmp_path):
        values = ["0", "-0", "00", "-007", "0" * 17 + "1", "-" + "0" * 18, "0" * 9, "-" + "0" * 8 + "5"]
        result = check(tmp_path, "".join(f"{v}\t0.0\tx\n" for v in values), bulk_path=True)
        assert np.frombuffer(result[1][0][2], np.int64).tolist() == [int(v) for v in values]

    @pytest.mark.parametrize(
        "schema,text",
        [
            (Schema([("n", "int")]), "7\n"),
            (Schema([("n", "int")]), "-123456789012345678\n"),
            (EDGES, "123456789012345678\t-5\n"),
            (Schema([("tag", "string")]), "x" * 64 + "\n"),
            (Schema([("n", "int"), ("tag", "string")]), "1\t" + "y" * 63 + "\n"),
            (Schema([("x", "float")]), "1e300\n"),
        ],
    )
    def test_fields_touching_the_pad(self, tmp_path, schema, text):
        check(tmp_path, text, bulk_path=True, schema=schema)

    @pytest.mark.parametrize("block", [1, 37, 64, 500])
    @pytest.mark.parametrize("has_header", [False, True])
    def test_rows_straddling_block_edges(self, tmp_path, monkeypatch, block, has_header):
        monkeypatch.setattr(io_tsv, "_BLOCK", block)
        header = "id\tscore\ttag\n" if has_header else ""
        check(tmp_path, header + "".join(_rows(300)), bulk_path=True, has_header=has_header)

    @pytest.mark.parametrize(
        "last,reason",
        [
            ("1x\t0.0\tz\n", "int_format"),
            ("1\t0.0\n", "field_count"),
            ("1\t0.0\tz\textra\n", "field_count"),
            ("# the end\n", "comment_or_blank"),
            ("\n", "comment_or_blank"),
            ("1\tabc\tz\n", "float_format"),
        ],
    )
    def test_doubt_only_in_the_last_block(self, tmp_path, small_blocks, last, reason):
        check(tmp_path, "".join(_rows(200)) + last, bulk_path=False)
        assert bulk_reason(tmp_path / "case.tsv") == reason

    @pytest.mark.parametrize(
        "first,last,reason",
        [
            ("1x\t0.0\tz\n", "# the end\n", "comment_or_blank"),
            ("1\t0.0\n", "\n", "comment_or_blank"),
            ("1x\t0.0\tz\n", "1\t0.0\n", "field_count"),
            ("1\tabc\tz\n", "1x\t0.0\tz\n", "int_format"),
            ("1x\t0.0\tz\n", "1\tabc\tz\n", "int_format"),
        ],
    )
    def test_the_whole_file_order_names_the_reason(
        self, tmp_path, small_blocks, first, last, reason
    ):
        # Each doubt sits in its own block; the reason is the one a
        # scan of the whole file at once gives.
        check(tmp_path, first + "".join(_rows(200)) + last, bulk_path=False)
        assert bulk_reason(tmp_path / "case.tsv") == reason

    def test_a_float_column_before_an_int_column_ranks_first(self, tmp_path, small_blocks):
        schema = Schema([("score", "float"), ("id", "int")])
        rows = "".join(f"{i * 0.5!r}\t{i}\n" for i in range(200))
        check(tmp_path, "0.5\t1x\n" + rows + "abc\t1\n", bulk_path=False, schema=schema)
        assert bulk_reason(tmp_path / "case.tsv", schema=schema) == "float_format"

    @pytest.mark.parametrize("width", [8, 9, 16, 17, 64, 65])
    def test_string_widths(self, tmp_path, small_blocks, width):
        values = ["a" * width, "a" * (width - 1) + "b", "b" + "a" * (width - 1), "a" * (width - 1)]
        rows = [f"{i}\t0.0\t{values[i * 7 % len(values)]}\n" for i in range(60)]
        result = check(tmp_path, "".join(rows), bulk_path=True)
        assert sorted(result[2]) == sorted(values)

    def test_key_does_not_depend_on_block_width(self, tmp_path, small_blocks):
        # Early blocks need one word per field, later ones three; equal
        # strings must still group together across them.
        short = [f"{i}\t0.0\tabc\n" for i in range(30)]
        long = [f"{i}\t0.0\t{'abc' if i % 2 else 'z' * 20}\n" for i in range(30)]
        result = check(tmp_path, "".join(short + long + short), bulk_path=True)
        assert result[2] == ["abc", "z" * 20]

    def test_hash_collision_across_blocks(self, tmp_path, monkeypatch, small_blocks):
        monkeypatch.setattr(io_tsv, "_MIX", np.uint64(0))
        rows = ["1\t0.0\taaaaaaaaX\n", "2\t0.0\tshort\n"] * 10 + ["3\t0.0\tbbbbbbbbX\n"] * 10
        rows += ["4\t0.0\taaaaaaaaX\n"] * 5
        result = check(tmp_path, "".join(rows), bulk_path=True)
        assert result[2] == ["aaaaaaaaX", "short", "bbbbbbbbX"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_reads_to_its_end(self, tmp_path):
        # A pipe reports size 0, so the scan must read past its stat.
        text = "".join(_rows(300))
        pipe, plain = tmp_path / "pipe.tsv", tmp_path / "plain.tsv"
        plain.write_text(text)
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        bulk = _outcome(lambda pool: io_tsv._load_bulk(SCHEMA, pipe, "\t", False, "#", pool))
        writer.join(timeout=10)
        reference = _outcome(lambda pool: io_tsv._load_rows(SCHEMA, plain, "\t", False, "#", pool))
        assert bulk == reference


@settings(max_examples=100, deadline=None)
@given(tsv_files(), st.booleans(), st.sampled_from([1, 16, 64]))
def test_generated_files_match_the_loop_in_small_blocks(body, has_header, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_tsv, "_BLOCK", block)
        _check_generated(body, has_header)


@settings(max_examples=100, deadline=None)
@given(tsv_files(), st.booleans(), st.sampled_from([1, 16, 64]))
def test_block_size_does_not_change_the_reason(body, has_header, block):
    # These files fit one default block, so the default scan is the
    # whole-file scan whose reason every block size must repeat.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gen.tsv"
        path.write_bytes(body.encode("utf-8"))
        whole = bulk_reason(path, has_header=has_header)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(io_tsv, "_BLOCK", block)
            assert bulk_reason(path, has_header=has_header) == whole
