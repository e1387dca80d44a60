"""Table schemas.

Schemas are deliberately simple: every column is a named, ordered collection
of strings.  The transformation-discovery algorithm is purely syntactic, so a
single string type is sufficient; numeric data is represented by its textual
form exactly as it would appear in a CSV export.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ColumnSchema:
    """Schema of one column: a name and an optional human-readable role.

    The *role* is free text used by the dataset generators (e.g. ``"join"``,
    ``"payload"``) and never interpreted by the engine.
    """

    name: str
    role: str = "payload"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column name must not be empty")


@dataclass(frozen=True)
class TableSchema:
    """Ordered collection of column schemas with unique names."""

    columns: tuple[ColumnSchema, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [col.name for col in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate column names in schema: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        """Column names, in order."""
        return tuple(col.name for col in self.columns)

    def __contains__(self, name: object) -> bool:
        return any(col.name == name for col in self.columns)

    def __len__(self) -> int:
        return len(self.columns)
