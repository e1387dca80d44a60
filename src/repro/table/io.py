"""CSV import/export for tables.

The benchmark datasets are materialized as CSV files so experiments can be
re-run without regenerating data, and so users can drop in their own table
pairs.

Malformed input surfaces as :class:`TableReadError` — one typed exception
(a ``ValueError`` subclass, so pre-existing callers keep working) carrying
the file and, where known, the line of the defect: invalid UTF-8, ragged
rows, CSV structure errors, empty files, and a header with an empty or
repeated column name all map to it instead of leaking
``UnicodeDecodeError`` or ``csv.Error`` with no file context.  A leading
byte-order mark (Excel's "CSV UTF-8") is not part of the first name.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.table.table import Column, Table


class TableReadError(ValueError):
    """A CSV file could not be read as a table.

    Raised with file (and, where applicable, line) context for every defect
    class :func:`read_csv` detects: files it cannot open or read, empty
    files, empty or repeated header names, undecodable bytes, ragged rows
    and CSV structure errors.
    Subclasses ``ValueError`` so callers of the pre-typed API keep catching
    it.
    """


def read_csv(path: str | Path) -> Table:
    """Read a CSV file (with a header row) into a :class:`Table`.

    All cells are read as strings, and the table is named after the file's
    stem.  Malformed input raises :class:`TableReadError` (a
    ``ValueError``) with file/line context: a file that cannot be opened or
    read (missing, a directory, no permission), an empty file, an empty
    header row, a header with an empty or repeated column name, invalid
    UTF-8, rows whose arity differs from the header (named by the line the
    row ends on), or CSV structure errors.  A leading UTF-8 byte-order mark
    is skipped, and so is a blank line after the header.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise TableReadError(
                    f"{path} is empty; expected a header row"
                ) from None
            if not header:
                # csv.reader yields no cells for a blank line.
                raise TableReadError(f"{path}:1: the header row is empty")
            columns: dict[str, list[str]] = {}
            for position, column in enumerate(header, start=1):
                if not column:
                    raise TableReadError(
                        f"{path}: header column {position} has no name"
                    )
                if column in columns:
                    raise TableReadError(
                        f"{path}: header repeats column {column!r}"
                    )
                columns[column] = []
            arity = len(header)
            for row in reader:
                if len(row) != arity:
                    if not row:  # a blank line, skipped as csv.DictReader does
                        continue
                    # line_num: the line the record ends on, not its ordinal
                    raise TableReadError(
                        f"{path}:{reader.line_num}: expected {arity} cells, "
                        f"got {len(row)}"
                    )
                for column, cell in zip(header, row):
                    columns[column].append(cell)
    except UnicodeDecodeError as error:
        raise TableReadError(
            f"{path}: not valid UTF-8 at byte {error.start} ({error.reason})"
        ) from error
    except csv.Error as error:
        raise TableReadError(f"{path}: malformed CSV: {error}") from error
    except OSError as error:
        raise TableReadError(f"{path}: cannot read: {error.strerror or error}") from error
    return Table(columns, name=path.stem)


def write_csv(table: Table, path: str | Path) -> None:
    """Write *table* to *path* as CSV with a header row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        for row in table.rows():
            writer.writerow(row.as_tuple(table.column_names))


__all__ = ["TableReadError", "read_csv", "write_csv", "Column"]
