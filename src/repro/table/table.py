"""In-memory, column-oriented string tables.

:class:`Table` is the unit of data every other subsystem consumes: dataset
generators produce tables, the row matcher pairs up rows from two tables, the
discovery engine learns transformations between two columns, and the join
operator materializes the transformed equi-join.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class Row:
    """A single table row: an index plus the cell values keyed by column name."""

    index: int
    values: Mapping[str, str]

    def __getitem__(self, column: str) -> str:
        return self.values[column]

    def as_tuple(self, columns: Sequence[str]) -> tuple[str, ...]:
        """Project the row onto *columns* preserving their order."""
        return tuple(self.values[c] for c in columns)


class Column:
    """A named, ordered, immutable sequence of string cells."""

    __slots__ = ("_name", "_values")

    def __init__(self, name: str, values: Iterable[str]) -> None:
        if not name:
            raise ValueError("column name must not be empty")
        self._name = name
        self._values = tuple(str(v) for v in values)

    @property
    def name(self) -> str:
        """The column name."""
        return self._name

    @property
    def values(self) -> tuple[str, ...]:
        """All cell values in row order."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: int) -> str:
        return self._values[index]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return self._name == other._name and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._name, self._values))

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self._values[:3])
        suffix = ", ..." if len(self._values) > 3 else ""
        return f"Column({self._name!r}, [{preview}{suffix}], n={len(self._values)})"


class Table:
    """A column-oriented table of strings.

    Tables are immutable: every operation returns a new table.  Columns are
    stored as tuples of strings; the number of rows is the common length of
    all columns.
    """

    def __init__(
        self,
        columns: Mapping[str, Iterable[str]] | Sequence[Column],
        *,
        name: str = "table",
    ) -> None:
        if isinstance(columns, Mapping):
            built = [Column(col_name, values) for col_name, values in columns.items()]
        else:
            built = list(columns)
        if not built:
            raise ValueError("a table must have at least one column")
        lengths = {len(col) for col in built}
        if len(lengths) > 1:
            detail = {col.name: len(col) for col in built}
            raise ValueError(f"all columns must have the same length, got {detail}")
        names = [col.name for col in built]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate column names: {names}")
        self._columns: dict[str, Column] = {col.name: col for col in built}
        self._column_names = tuple(names)
        self._name = name
        self._num_rows = len(built[0])

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """The table name (used only for reporting)."""
        return self._name

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names, in order."""
        return self._column_names

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._num_rows

    def column(self, name: str) -> Column:
        """Return the column *name*, raising ``KeyError`` if it does not exist."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column named {name!r}; available: {list(self.column_names)}"
            ) from None

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self._num_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self.column_names == other.column_names
            and all(self[c] == other[c] for c in self.column_names)
        )

    def __repr__(self) -> str:
        return (
            f"Table({self._name!r}, columns={list(self.column_names)}, "
            f"rows={self._num_rows})"
        )

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #
    def row(self, index: int) -> Row:
        """Return row *index* as a :class:`Row`."""
        if not 0 <= index < self._num_rows:
            raise IndexError(f"row index {index} out of range [0, {self._num_rows})")
        return Row(index, {name: col[index] for name, col in self._columns.items()})

    def rows(self) -> Iterator[Row]:
        """Iterate over all rows in order."""
        for index in range(self._num_rows):
            yield self.row(index)

    # ------------------------------------------------------------------ #
    # Construction helpers and derived tables
    # ------------------------------------------------------------------ #
    def with_name(self, name: str) -> "Table":
        """Return the same table under a different name."""
        return Table(list(self._columns.values()), name=name)

    def take(self, indices: Sequence[int]) -> "Table":
        """Return a new table containing the rows at *indices* (in that order)."""
        for index in indices:
            if not 0 <= index < self._num_rows:
                raise IndexError(
                    f"row index {index} out of range [0, {self._num_rows})"
                )
        columns = [
            Column(col.name, [col[i] for i in indices])
            for col in self._columns.values()
        ]
        return Table(columns, name=self._name)

    def head(self, count: int) -> "Table":
        """Return the first *count* rows (fewer if the table is smaller)."""
        count = max(0, min(count, self._num_rows))
        return self.take(list(range(count)))
