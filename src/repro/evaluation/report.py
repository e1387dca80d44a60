"""Plain-text report formatting used by benchmarks and examples.

Every benchmark regenerates one of the paper's tables or figures; these
helpers render the result rows as an aligned text table so the output reads
like the table it reproduces.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Sequence[str] | None = None,
    title: str | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render *rows* (dicts) as an aligned, pipe-separated text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    header = " | ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "-+-".join("-" * width for width in widths)
    body = "\n".join(
        " | ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in rendered
    )
    parts = []
    if title:
        parts.append(title)
    parts.extend([header, separator, body])
    return "\n".join(parts)
