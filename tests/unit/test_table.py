"""Unit tests for the relational substrate (repro.table)."""

from __future__ import annotations

import pytest

from repro.table.ops import equi_join, hash_join, project, rename, select
from repro.table.schema import ColumnSchema, TableSchema
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

    def test_average_length(self):
        assert Column("x", ["ab", "abcd"]).average_length() == 3.0
        assert Column("x", []).average_length() == 0.0

    def test_unique(self):
        assert Column("x", ["a", "b", "a"]).unique() == {"a", "b"}

    def test_equality_and_hash(self):
        assert Column("x", ["a"]) == Column("x", ["a"])
        assert Column("x", ["a"]) != Column("y", ["a"])
        assert hash(Column("x", ["a"])) == hash(Column("x", ["a"]))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Column("", ["a"])


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TableSchema((ColumnSchema("a"), ColumnSchema("a")))

    def test_index_of(self):
        schema = TableSchema.from_names(["a", "b"])
        assert schema.index_of("b") == 1
        with pytest.raises(KeyError):
            schema.index_of("c")

    def test_contains_and_len(self):
        schema = TableSchema.from_names(["a", "b"])
        assert "a" in schema and "z" not in schema
        assert len(schema) == 2

    def test_empty_column_name_rejected(self):
        with pytest.raises(ValueError):
            ColumnSchema("")


class TestTableConstruction:
    def test_basic_properties(self, people):
        assert people.num_rows == 3
        assert people.num_columns == 2
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

    def test_from_records(self):
        table = Table.from_records([{"a": "1", "b": "2"}, {"a": "3", "b": "4"}])
        assert table["a"].values == ("1", "3")
        assert table["b"].values == ("2", "4")

    def test_from_records_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Table.from_records([{"a": "1"}, {"b": "2"}])

    def test_from_records_empty_rejected(self):
        with pytest.raises(ValueError):
            Table.from_records([])

    def test_to_records_round_trip(self, people):
        assert Table.from_records(people.to_records()) == people


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


class TestDerivedTables:
    def test_with_column_adds_and_replaces(self, people):
        extended = people.with_column("age", ["30", "40", "50"])
        assert extended["age"].values == ("30", "40", "50")
        replaced = extended.with_column("age", ["1", "2", "3"])
        assert replaced["age"].values == ("1", "2", "3")
        assert replaced.num_columns == 3

    def test_with_column_length_mismatch(self, people):
        with pytest.raises(ValueError):
            people.with_column("age", ["30"])

    def test_take_and_head(self, people):
        subset = people.take([2, 0])
        assert subset["name"].values == ("Carol", "Alice")
        assert people.head(2)["name"].values == ("Alice", "Bob")
        assert people.head(10).num_rows == 3

    def test_take_out_of_range(self, people):
        with pytest.raises(IndexError):
            people.take([5])

    def test_sample_is_deterministic(self, people):
        assert people.sample(2, seed=7) == people.sample(2, seed=7)
        assert people.sample(2, seed=7).num_rows == 2

    def test_with_name(self, people):
        assert people.with_name("other").name == "other"


class TestRelationalOps:
    def test_project(self, people):
        projected = project(people, ["dept"])
        assert projected.column_names == ("dept",)
        with pytest.raises(KeyError):
            project(people, ["missing"])

    def test_rename(self, people):
        renamed = rename(people, {"dept": "department"})
        assert "department" in renamed and "dept" not in renamed

    def test_select(self, people):
        selected = select(people, lambda row: row["dept"] == "CS")
        assert selected["name"].values == ("Alice", "Carol")

    def test_select_no_match_preserves_schema(self, people):
        selected = select(people, lambda row: False)
        assert selected.num_rows == 0
        assert selected.column_names == people.column_names

    def test_hash_join_matches_equal_keys(self):
        left = Table({"k": ["a", "b", "b"], "x": ["1", "2", "3"]})
        right = Table({"k": ["b", "c"], "y": ["9", "8"]})
        joined = hash_join(left, right, left_on="k", right_on="k")
        assert joined.num_rows == 2
        assert set(joined["x"].values) == {"2", "3"}
        assert set(joined["y"].values) == {"9"}

    def test_hash_join_suffixes_collisions(self):
        left = Table({"k": ["a"], "v": ["1"]})
        right = Table({"k": ["a"], "v": ["2"]})
        joined = hash_join(left, right, left_on="k", right_on="k")
        assert "v_left" in joined and "v_right" in joined

    def test_hash_join_missing_column(self):
        left = Table({"k": ["a"]})
        right = Table({"k": ["a"]})
        with pytest.raises(KeyError):
            hash_join(left, right, left_on="z", right_on="k")

    def test_equi_join_pairs(self):
        left = Table({"k": ["a", "b"]})
        right = Table({"k": ["b", "a", "a"]})
        pairs = equi_join(left, right, left_on="k", right_on="k")
        assert set(pairs) == {(0, 1), (0, 2), (1, 0)}


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


class TestTableReadErrors:
    def test_ragged_row_error_carries_file_and_line(self, tmp_path):
        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(
            TableReadError, match=r"ragged\.csv:3: expected 2 cells, got 1"
        ):
            read_csv(path)

    def test_invalid_utf8_error_carries_file_and_byte(self, tmp_path):
        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "binary.csv"
        path.write_bytes(b"a,b\n\xff\xfe,2\n")
        with pytest.raises(TableReadError, match=r"binary\.csv: not valid UTF-8"):
            read_csv(path)

    def test_empty_file_error_is_typed(self, tmp_path):
        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "empty.csv"
        path.write_text("")
        # TableReadError subclasses ValueError, so pre-typed callers that
        # catch ValueError (see TestTableIO above) keep working.
        with pytest.raises(TableReadError, match="expected a header row"):
            read_csv(path)
        assert issubclass(TableReadError, ValueError)

    def test_missing_file_error_is_typed(self, tmp_path):
        from repro.table.io import TableReadError, read_csv

        path = tmp_path / "missing.csv"
        for errors in ("strict", "replace"):
            with pytest.raises(TableReadError, match=r"missing\.csv: cannot read"):
                read_csv(path, errors=errors)

    def test_lenient_mode_substitutes_replacement_characters(self, tmp_path):
        from repro.table.io import read_csv

        path = tmp_path / "binary.csv"
        path.write_bytes(b"a,b\nx\xff,2\n")
        table = read_csv(path, errors="replace")
        assert table["a"].values == ("x�",)
        assert table["b"].values == ("2",)

    def test_lenient_mode_coerces_ragged_rows(self, tmp_path):
        from repro.table.io import read_csv

        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1\n2,3,4\n")
        table = read_csv(path, errors="replace")
        # Short rows pad with empty cells, long rows truncate.
        assert table["a"].values == ("1", "2")
        assert table["b"].values == ("", "3")

    def test_unknown_errors_mode_rejected(self, tmp_path):
        from repro.table.io import read_csv

        with pytest.raises(ValueError, match="strict"):
            read_csv(tmp_path / "x.csv", errors="ignore")
