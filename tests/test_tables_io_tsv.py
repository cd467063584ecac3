"""Tests for TSV load/save round-tripping."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SchemaError
from repro.tables.io_tsv import load_table_tsv, save_table_tsv
from repro.tables.table import Table

SCHEMA = [("id", "int"), ("score", "float"), ("tag", "string")]


def write(tmp_path, text, name="data.tsv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoad:
    def test_basic_load(self, tmp_path):
        path = write(tmp_path, "1\t0.5\tjava\n2\t1.5\tgo\n")
        table = load_table_tsv(SCHEMA, path)
        assert table.num_rows == 2
        assert table.column("id").tolist() == [1, 2]
        assert table.column("score").tolist() == [0.5, 1.5]
        assert table.values("tag") == ["java", "go"]

    def test_skips_comments_and_blank_lines(self, tmp_path):
        path = write(tmp_path, "# comment\n\n1\t0.0\tx\n")
        assert load_table_tsv(SCHEMA, path).num_rows == 1

    def test_header_skipped_when_requested(self, tmp_path):
        path = write(tmp_path, "id\tscore\ttag\n1\t0.0\tx\n")
        table = load_table_tsv(SCHEMA, path, has_header=True)
        assert table.num_rows == 1

    def test_field_count_mismatch_reports_line(self, tmp_path):
        path = write(tmp_path, "1\t0.0\tx\n2\t0.0\n")
        with pytest.raises(SchemaError, match=":2"):
            load_table_tsv(SCHEMA, path)

    def test_bad_int_reports_column(self, tmp_path):
        path = write(tmp_path, "notanint\t0.0\tx\n")
        with pytest.raises(SchemaError, match="'id'"):
            load_table_tsv(SCHEMA, path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        table = load_table_tsv(SCHEMA, path)
        assert table.num_rows == 0
        assert table.schema.names == ("id", "score", "tag")

    def test_custom_separator(self, tmp_path):
        path = write(tmp_path, "1,0.0,x\n")
        table = load_table_tsv(SCHEMA, path, sep=",")
        assert table.values("tag") == ["x"]

    def test_crlf_line_endings(self, tmp_path):
        path = write(tmp_path, "1\t0.0\tx\r\n2\t1.0\ty\r\n")
        table = load_table_tsv(SCHEMA, path)
        assert table.values("tag") == ["x", "y"]


class TestSaveAndRoundTrip:
    def test_save_returns_row_count(self, tmp_path):
        table = Table.from_columns({"x": [1, 2, 3]})
        assert save_table_tsv(table, tmp_path / "out.tsv") == 3

    def test_header_written_when_requested(self, tmp_path):
        table = Table.from_columns({"x": [1]})
        path = tmp_path / "out.tsv"
        save_table_tsv(table, path, write_header=True)
        assert path.read_text().splitlines()[0] == "x"

    def test_roundtrip_preserves_values(self, tmp_path):
        table = Table.from_columns(
            {"id": [3, 1], "score": [0.1, -2.5], "tag": ["a b", "c"]}
        )
        path = tmp_path / "round.tsv"
        save_table_tsv(table, path)
        loaded = load_table_tsv(SCHEMA, path)
        assert loaded.column("id").tolist() == [3, 1]
        assert loaded.column("score").tolist() == [0.1, -2.5]
        assert loaded.values("tag") == ["a b", "c"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(
                    alphabet=st.one_of(
                        st.sampled_from("#\t\n\r"),
                        st.characters(blacklist_categories=("Cs",)),
                    ),
                    max_size=8,
                ),
                st.integers(-(10**9), 10**9),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=25,
        )
    )
    def test_roundtrip_arbitrary_rows(self, rows):
        """Any table either loads back exactly or refuses to save."""
        schema = [("tag", "string"), ("id", "int"), ("score", "float")]
        table = Table.from_rows(schema, rows)
        unreadable = any(
            tag.startswith("#") or any(c in tag for c in "\t\n\r") for tag, _, _ in rows
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.tsv"
            if unreadable:
                with pytest.raises(SchemaError, match="column 'tag', row"):
                    save_table_tsv(table, path)
                assert not path.exists()
                return
            save_table_tsv(table, path)
            loaded = load_table_tsv(schema, path)
        assert loaded.values("tag") == [r[0] for r in rows]
        assert loaded.column("id").tolist() == [r[1] for r in rows]
        assert loaded.column("score").tolist() == [float(r[2]) for r in rows]


class TestSaveRefusesWhatWouldNotLoadBack:
    def test_row_starting_with_comment_marker(self, tmp_path):
        table = Table.from_columns({"tag": ["go", "#java"], "n": [1, 2]})
        with pytest.raises(SchemaError, match="column 'tag', row 1: .*'#'"):
            save_table_tsv(table, tmp_path / "out.tsv")

    def test_all_empty_row_would_be_a_blank_line(self, tmp_path):
        table = Table.from_columns({"tag": ["a", "", "b"]})
        with pytest.raises(SchemaError, match="column 'tag', row 1: .*empty"):
            save_table_tsv(table, tmp_path / "out.tsv")

    def test_empty_cells_beside_others_round_trip(self, tmp_path):
        table = Table.from_columns({"a": ["", "x"], "b": ["", ""]})
        path = tmp_path / "out.tsv"
        save_table_tsv(table, path)
        loaded = load_table_tsv([("a", "string"), ("b", "string")], path)
        assert loaded.values("a") == ["", "x"]

    @pytest.mark.parametrize("cell", ["a\tb", "a\nb", "a\rb"])
    def test_cell_holding_separator_or_line_break(self, tmp_path, cell):
        table = Table.from_columns({"n": [1, 2], "tag": ["ok", cell]})
        path = tmp_path / "out.tsv"
        with pytest.raises(SchemaError, match="column 'tag', row 1"):
            save_table_tsv(table, path)
        assert not path.exists()

    def test_header_starting_with_comment_marker(self, tmp_path):
        table = Table.from_columns({"#id": [1]})
        save_table_tsv(table, tmp_path / "plain.tsv")  # no header: fine
        with pytest.raises(SchemaError, match="header"):
            save_table_tsv(table, tmp_path / "out.tsv", write_header=True)

    def test_custom_separator_inside_a_float(self, tmp_path):
        table = Table.from_columns({"x": [0.5]})
        with pytest.raises(SchemaError, match="column 'x', row 0"):
            save_table_tsv(table, tmp_path / "out.tsv", sep=".")
