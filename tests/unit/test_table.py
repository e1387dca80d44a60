"""Unit tests for the relational substrate (repro.table)."""

from __future__ import annotations

import pytest

from repro.table.ops import equi_join
from repro.table.table import Column, Table


@pytest.fixture
def people() -> Table:
    return Table(
        {
            "name": ["Alice", "Bob", "Carol"],
            "dept": ["CS", "Physics", "CS"],
        },
        name="people",
    )


class TestColumn:
    def test_values_are_strings(self):
        column = Column("x", [1, 2, 3])
        assert column.values == ("1", "2", "3")

    def test_equality_and_hash(self):
        assert Column("x", ["a"]) == Column("x", ["a"])
        assert Column("x", ["a"]) != Column("y", ["a"])
        assert hash(Column("x", ["a"])) == hash(Column("x", ["a"]))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Column("", ["a"])

    def test_sequence_protocol(self):
        column = Column("x", ["a", "b", "c"])
        assert len(column) == 3
        assert column[1] == "b"
        assert column[-1] == "c"
        assert list(column) == ["a", "b", "c"]

    def test_repr_previews_the_first_three_values(self):
        assert repr(Column("x", ["a", "b"])) == "Column('x', ['a', 'b'], n=2)"
        assert (
            repr(Column("x", ["a", "b", "c", "d"]))
            == "Column('x', ['a', 'b', 'c', ...], n=4)"
        )

    def test_not_equal_to_other_types(self):
        assert Column("x", ["a"]) != ("a",)
        assert Column("x", ["a"]) != Table({"x": ["a"]})


class TestTableConstruction:
    def test_basic_properties(self, people):
        assert people.num_rows == 3
        assert people.column_names == ("name", "dept")
        assert len(people) == 3

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError):
            Table({"a": ["1"], "b": ["1", "2"]})

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Table([Column("a", ["1"]), Column("a", ["2"])])

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError):
            Table({})

    def test_built_from_columns_in_order(self):
        table = Table([Column("b", ["1"]), Column("a", ["2"])], name="t")
        assert table.column_names == ("b", "a")
        assert table["a"].values == ("2",)
        assert table.name == "t"

    def test_zero_row_table(self):
        table = Table({"a": [], "b": []})
        assert table.num_rows == 0
        assert list(table.rows()) == []
        assert table.head(3).num_rows == 0

    def test_equality_ignores_name_but_not_column_order(self, people):
        assert people.with_name("other") == people
        swapped = Table({"dept": people["dept"], "name": people["name"]})
        assert swapped != people
        assert people != {"name": people["name"].values}


class TestTableAccess:
    def test_missing_column_raises_helpful_error(self, people):
        with pytest.raises(KeyError, match="available"):
            people.column("age")

    def test_row_access(self, people):
        row = people.row(1)
        assert row["name"] == "Bob"
        assert row.as_tuple(["dept", "name"]) == ("Physics", "Bob")

    def test_row_out_of_range(self, people):
        with pytest.raises(IndexError):
            people.row(3)

    def test_rows_iteration_order(self, people):
        assert [r["name"] for r in people.rows()] == ["Alice", "Bob", "Carol"]

    def test_contains(self, people):
        assert "name" in people and "age" not in people

    def test_negative_row_index_rejected(self, people):
        with pytest.raises(IndexError):
            people.row(-1)

    def test_repr_names_columns_and_row_count(self, people):
        assert repr(people) == "Table('people', columns=['name', 'dept'], rows=3)"


class TestDerivedTables:
    def test_take_and_head(self, people):
        subset = people.take([2, 0])
        assert subset["name"].values == ("Carol", "Alice")
        assert people.head(2)["name"].values == ("Alice", "Bob")
        assert people.head(10).num_rows == 3

    def test_take_out_of_range(self, people):
        with pytest.raises(IndexError):
            people.take([5])
        with pytest.raises(IndexError):
            people.take([-1])

    def test_take_repeats_rows_and_keeps_the_name(self, people):
        repeated = people.take([1, 1])
        assert repeated["name"].values == ("Bob", "Bob")
        assert repeated.name == "people"
        assert people.take([]).num_rows == 0

    @pytest.mark.parametrize("count", [0, -2])
    def test_head_of_non_positive_count_is_empty(self, people, count):
        head = people.head(count)
        assert head.num_rows == 0
        assert head.column_names == people.column_names

    def test_with_name(self, people):
        assert people.with_name("other").name == "other"


class TestRelationalOps:
    def test_equi_join_pairs(self):
        left = Table({"k": ["a", "b"]})
        right = Table({"k": ["b", "a", "a"]})
        pairs = equi_join(left, right, left_on="k", right_on="k")
        assert set(pairs) == {(0, 1), (0, 2), (1, 0)}

    def test_equi_join_orders_by_left_row_then_right_row(self):
        left = Table({"k": ["a", "b", "b"], "x": ["1", "2", "3"]})
        right = Table({"k": ["b", "c", "b"], "y": ["9", "8", "7"]})
        pairs = equi_join(left, right, left_on="k", right_on="k")
        assert pairs == [(1, 0), (1, 2), (2, 0), (2, 2)]

    def test_equi_join_without_shared_keys_is_empty(self):
        left = Table({"k": ["a", "b"]})
        right = Table({"k": ["A", "c"]})
        assert equi_join(left, right, left_on="k", right_on="k") == []

    def test_equi_join_on_differently_named_columns(self):
        left = Table({"phone": ["780-1", "780-2"]})
        right = Table({"number": ["780-2"], "owner": ["Ann"]})
        pairs = equi_join(left, right, left_on="phone", right_on="number")
        assert pairs == [(1, 0)]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_equi_join_missing_column_raises_key_error(self, side):
        left = Table({"k": ["a"]})
        right = Table({"k": ["a"]})
        columns = {"left_on": "k", "right_on": "k", f"{side}_on": "z"}
        with pytest.raises(KeyError, match="no column named 'z'"):
            equi_join(left, right, **columns)


class TestTableIO:
    def test_csv_round_trip(self, tmp_path, people):
        from repro.table.io import read_csv, write_csv

        path = tmp_path / "people.csv"
        write_csv(people, path)
        loaded = read_csv(path)
        assert loaded == people

    def test_read_empty_file_raises(self, tmp_path):
        from repro.table.io import read_csv

        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_read_inconsistent_arity_raises(self, tmp_path):
        from repro.table.io import read_csv

        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_cells_with_commas_and_quotes(self, tmp_path):
        from repro.table.io import read_csv, write_csv

        table = Table({"name": ['Rafiei, "Davood"', "O'Neil, Jack"]})
        path = tmp_path / "quoted.csv"
        write_csv(table, path)
        assert read_csv(path) == table

    def test_multiline_and_unicode_cells_round_trip(self, tmp_path):
        from repro.table.io import read_csv, write_csv

        table = Table({"a": ["line 1\nline 2", "Köln, 東京"], "b": ["", " x "]})
        path = tmp_path / "cells.csv"
        write_csv(table, path)
        assert read_csv(path) == table

    def test_zero_row_table_round_trip(self, tmp_path):
        from repro.table.io import read_csv, write_csv

        table = Table({"a": [], "b": []})
        path = tmp_path / "header_only.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.column_names == ("a", "b")
        assert loaded.num_rows == 0

    def test_write_creates_parent_directories(self, tmp_path, people):
        from repro.table.io import read_csv, write_csv

        path = tmp_path / "nested" / "deeper" / "people.csv"
        write_csv(people, path)
        assert read_csv(path) == people

    def test_name_defaults_to_the_file_stem(self, tmp_path, people):
        from repro.table.io import read_csv, write_csv

        path = tmp_path / "staff.csv"
        write_csv(people, path)
        assert read_csv(path).name == "staff"


class TestTableReadErrors:
    def test_ragged_row_error_carries_file_and_line(self, tmp_path):
        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(
            TableReadError, match=r"ragged\.csv:3: expected 2 cells, got 1"
        ):
            read_csv(path)

    def test_ragged_row_after_a_multiline_cell_names_its_line(self, tmp_path):
        # The quoted cell spans lines 2 and 3, so the ragged third record
        # is on line 4 of the file.
        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "multiline.csv"
        path.write_text('a,b\n"x\ny",2\n3\n')
        with pytest.raises(
            TableReadError, match=r"multiline\.csv:4: expected 2 cells, got 1"
        ):
            read_csv(path)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a,b\n1,2\n\n", {"a": ["1"], "b": ["2"]}),
            ("a,b\n1,2\n\n3,4\n", {"a": ["1", "3"], "b": ["2", "4"]}),
            ("a,b\n\n\n1,2\n\n", {"a": ["1"], "b": ["2"]}),
        ],
        ids=["trailing", "between-rows", "several"],
    )
    def test_blank_lines_after_the_header_are_skipped(self, tmp_path, text, expected):
        # csv.reader reads a blank line as a record of no cells; like
        # csv.DictReader, read_csv takes it for no record at all.
        from repro.table.io import read_csv

        path = tmp_path / "blank.csv"
        path.write_text(text)
        assert read_csv(path) == Table(expected)

    def test_invalid_utf8_error_carries_file_and_byte(self, tmp_path):
        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "binary.csv"
        path.write_bytes(b"a,b\n\xff\xfe,2\n")
        with pytest.raises(
            TableReadError, match=r"binary\.csv: not valid UTF-8 at byte 4 \("
        ) as excinfo:
            read_csv(path)
        # Nothing a caller could pass reads such a file.
        assert "pass" not in str(excinfo.value)

    def test_empty_file_error_is_typed(self, tmp_path):
        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "empty.csv"
        path.write_text("")
        # TableReadError subclasses ValueError, so pre-typed callers that
        # catch ValueError (see TestTableIO above) keep working.
        with pytest.raises(TableReadError, match="expected a header row"):
            read_csv(path)
        assert issubclass(TableReadError, ValueError)

    @pytest.mark.parametrize(
        "text", ["\n", "\nname\nAnn\n"], ids=["newline-only", "blank-first-line"]
    )
    def test_blank_header_row_is_a_typed_error(self, tmp_path, text):
        # csv.reader reads a blank line as a row of no cells: not a table
        # without columns, nor a ragged second line.
        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "blank.csv"
        path.write_text(text)
        with pytest.raises(
            TableReadError, match=r"blank\.csv:1: the header row is empty"
        ):
            read_csv(path)

    def test_missing_file_error_is_typed(self, tmp_path):
        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "missing.csv"
        with pytest.raises(TableReadError, match=r"missing\.csv: cannot read"):
            read_csv(path)

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark.
        from repro.table.io import read_csv

        path = tmp_path / "bom.csv"
        path.write_bytes("name,city\r\nAnn,Köln\r\n".encode("utf-8-sig"))
        table = read_csv(path)
        assert table.column_names == ("name", "city")
        assert table["name"].values == ("Ann",)

    def test_repeated_header_name_is_a_typed_error(self, tmp_path):
        # Not one column holding both cells of every row.
        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "twice.csv"
        path.write_text("name,name\na,b\nc,d\n")
        with pytest.raises(
            TableReadError, match=r"twice\.csv: header repeats column 'name'"
        ):
            read_csv(path)

    def test_empty_header_name_is_a_typed_error(self, tmp_path):
        # A trailing comma leaves the last header cell empty.
        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "trailing.csv"
        path.write_text("name,\nAnn,\n")
        with pytest.raises(
            TableReadError, match=r"trailing\.csv: header column 2 has no name"
        ):
            read_csv(path)

    def test_directory_is_a_typed_error(self, tmp_path):
        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "folder.csv"
        path.mkdir()
        with pytest.raises(TableReadError, match=r"folder\.csv: cannot read"):
            read_csv(path)

    def test_oversized_field_is_a_typed_csv_error(self, tmp_path):
        # The csv module refuses fields past its field size limit.
        import csv

        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "huge.csv"
        path.write_text("a\n" + "x" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(TableReadError, match=r"huge\.csv: malformed CSV"):
            read_csv(path)
