"""CSV import/export for tables.

The benchmark datasets are materialized as CSV files so experiments can be
re-run without regenerating data, and so users can drop in their own table
pairs.

Malformed input surfaces as :class:`TableReadError` — one typed exception
(a ``ValueError`` subclass, so pre-existing callers keep working) carrying
the file and, where known, the line of the defect: invalid UTF-8, ragged
rows, CSV structure errors, and empty files all map to it instead of
leaking ``UnicodeDecodeError`` or ``csv.Error`` with no file context.  For
data that is dirty but usable, ``errors="replace"`` switches
:func:`read_csv` to a lenient mode: undecodable bytes become U+FFFD
replacement characters and ragged rows are padded/truncated to the header
arity.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.table.table import Column, Table


class TableReadError(ValueError):
    """A CSV file could not be read as a table.

    Raised with file (and, where applicable, line) context for every defect
    class :func:`read_csv` detects: files it cannot open or read, empty
    files, undecodable bytes, ragged rows and CSV structure errors.
    Subclasses ``ValueError`` so callers of the pre-typed API keep catching
    it.
    """


def read_csv(
    path: str | Path,
    *,
    name: str | None = None,
    errors: str = "strict",
) -> Table:
    """Read a CSV file (with a header row) into a :class:`Table`.

    All cells are read as strings.  ``errors`` selects how malformed input
    is handled:

    * ``"strict"`` (default): raise :class:`TableReadError` (a
      ``ValueError``) with file/line context for an empty file, invalid
      UTF-8, rows whose arity differs from the header, or CSV structure
      errors.
    * ``"replace"``: decode invalid bytes to U+FFFD replacement characters
      and coerce ragged rows to the header arity (short rows padded with
      empty cells, long rows truncated) — for dirty-but-usable data.

    A file that cannot be opened or read (missing, a directory, no
    permission) raises :class:`TableReadError` under either setting.
    """
    if errors not in ("strict", "replace"):
        raise ValueError(
            f'errors must be "strict" or "replace", got {errors!r}'
        )
    lenient = errors == "replace"
    path = Path(path)
    try:
        with path.open(
            newline="",
            encoding="utf-8",
            errors="replace" if lenient else "strict",
        ) as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise TableReadError(
                    f"{path} is empty; expected a header row"
                ) from None
            columns: dict[str, list[str]] = {column: [] for column in header}
            arity = len(header)
            for line_number, row in enumerate(reader, start=2):
                if len(row) != arity:
                    if lenient:
                        row = row[:arity] + [""] * (arity - len(row))
                    else:
                        raise TableReadError(
                            f"{path}:{line_number}: expected {arity} cells, "
                            f"got {len(row)}"
                        )
                for column, cell in zip(header, row):
                    columns[column].append(cell)
    except UnicodeDecodeError as error:
        raise TableReadError(
            f"{path}: not valid UTF-8 at byte {error.start} "
            f'({error.reason}); pass errors="replace" to substitute '
            "replacement characters"
        ) from error
    except csv.Error as error:
        raise TableReadError(f"{path}: malformed CSV: {error}") from error
    except OSError as error:
        raise TableReadError(f"{path}: cannot read: {error.strerror or error}") from error
    return Table(columns, name=name or path.stem)


def write_csv(table: Table, path: str | Path) -> None:
    """Write *table* to *path* as CSV with a header row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        for row in table.rows():
            writer.writerow(row.as_tuple(table.column_names))


def read_table_pair(
    source_path: str | Path,
    target_path: str | Path,
) -> tuple[Table, Table]:
    """Read two CSV files as a (source, target) table pair."""
    return read_csv(source_path), read_csv(target_path)


__all__ = ["TableReadError", "read_csv", "write_csv", "read_table_pair", "Column"]
