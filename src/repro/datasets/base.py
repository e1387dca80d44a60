"""Dataset abstractions shared by all benchmarks."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.table.io import write_csv
from repro.table.table import Table


@dataclass
class TablePair:
    """One benchmark instance: a source table, a target table, ground truth.

    Attributes
    ----------
    name:
        Identifier of the pair (unique within a dataset).
    source / target:
        The two tables to be joined.
    source_column / target_column:
        The join columns.
    golden_pairs:
        Ground-truth (source_row, target_row) joinable pairs.
    description:
        Free-text description of the formatting relationship.
    """

    name: str
    source: Table
    target: Table
    source_column: str
    target_column: str
    golden_pairs: list[tuple[int, int]] = field(default_factory=list)
    description: str = ""

    @property
    def num_source_rows(self) -> int:
        """Number of source rows."""
        return self.source.num_rows

    @property
    def num_target_rows(self) -> int:
        """Number of target rows."""
        return self.target.num_rows

    @property
    def average_join_length(self) -> float:
        """Average cell length over both join columns."""
        lengths = [len(v) for v in self.source[self.source_column]]
        lengths += [len(v) for v in self.target[self.target_column]]
        if not lengths:
            return 0.0
        return sum(lengths) / len(lengths)

    def golden_string_pairs(self) -> list[tuple[str, str]]:
        """The golden pairs as (source_text, target_text) tuples."""
        source_values = self.source[self.source_column]
        target_values = self.target[self.target_column]
        return [
            (source_values[s], target_values[t]) for s, t in self.golden_pairs
        ]

    def save(self, directory: str | Path) -> None:
        """Write the pair to *directory* as CSV files plus a golden-pairs CSV."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_csv(self.source, directory / f"{self.name}_source.csv")
        write_csv(self.target, directory / f"{self.name}_target.csv")
        golden = Table(
            {
                "source_row": [str(s) for s, _ in self.golden_pairs],
                "target_row": [str(t) for _, t in self.golden_pairs],
            }
            if self.golden_pairs
            else {"source_row": [], "target_row": []},
            name=f"{self.name}_golden",
        )
        write_csv(golden, directory / f"{self.name}_golden.csv")


@dataclass
class BenchmarkDataset:
    """A named collection of table pairs."""

    name: str
    pairs: list[TablePair] = field(default_factory=list)
    description: str = ""

    def __iter__(self) -> Iterator[TablePair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, index: int) -> TablePair:
        return self.pairs[index]
