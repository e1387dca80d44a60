"""Row pairs: the input of the transformation-discovery algorithm.

A :class:`RowPair` is one (source, target) example — either provided as a
golden matching or produced by the row matcher of :mod:`repro.matching`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class RowPair:
    """A candidate joinable (source, target) cell pair.

    ``source_row`` / ``target_row`` are the originating row indices when the
    pair was produced from two tables (``-1`` when unknown), so end-to-end
    evaluation can compare discovered joins against ground truth.
    """

    source: str
    target: str
    source_row: int = -1
    target_row: int = -1


def pairs_from_strings(pairs: Iterable[tuple[str, str]]) -> list[RowPair]:
    """Build :class:`RowPair` objects from plain (source, target) tuples."""
    return [
        RowPair(source=source, target=target, source_row=index, target_row=index)
        for index, (source, target) in enumerate(pairs)
    ]
