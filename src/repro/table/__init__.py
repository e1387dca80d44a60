"""A lightweight relational substrate.

The paper's system operates on pairs of tables whose join columns are
formatted differently.  This package provides the minimal relational layer
the rest of the library builds on:

* :class:`~repro.table.table.Table` / :class:`~repro.table.table.Column` —
  in-memory, column-oriented tables of strings,
* :mod:`repro.table.ops` — the equi-join operator,
* :mod:`repro.table.io` — CSV import/export.

The substrate intentionally mirrors the subset of a relational engine the
paper depends on (string columns, equi-join) without pulling in pandas, so
the join semantics used by the experiments are explicit and testable.
"""

from repro.table.io import TableReadError, read_csv, write_csv
from repro.table.ops import equi_join
from repro.table.table import Column, Row, Table

__all__ = [
    "Column",
    "Row",
    "Table",
    "TableReadError",
    "equi_join",
    "read_csv",
    "write_csv",
]
