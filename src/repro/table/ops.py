"""The equi-join operator over :class:`~repro.table.table.Table`.

The transformation join used by the end-to-end experiments lives in
:mod:`repro.join`; it probes a :class:`~repro.matching.index.ValueIndex`
and does not call :func:`equi_join`.
"""

from __future__ import annotations

from collections import defaultdict

from repro.table.table import Table


def equi_join(
    left: Table,
    right: Table,
    *,
    left_on: str,
    right_on: str,
) -> list[tuple[int, int]]:
    """Return the (left_row, right_row) index pairs whose join cells are equal."""
    index: dict[str, list[int]] = defaultdict(list)
    for row_id, value in enumerate(right[right_on]):
        index[value].append(row_id)
    pairs: list[tuple[int, int]] = []
    for left_id, key in enumerate(left[left_on]):
        for right_id in index.get(key, ()):
            pairs.append((left_id, right_id))
    return pairs
