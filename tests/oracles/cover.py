"""The plain set-based greedy cover scan: the executable spec of
:func:`repro.core.cover.greedy_minimal_cover`.

The CELF engine must reproduce this scan's selection sequence tie for tie;
``tests/property/test_property_cover_selection.py`` asserts it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.coverage import CoverageResult


def greedy_minimal_cover_reference(
    results: Sequence[CoverageResult],
    *,
    min_support: int = 1,
) -> list[CoverageResult]:
    """The plain set-based greedy scan — the executable spec of
    :func:`greedy_minimal_cover`.

    Rescores every remaining candidate each round with Python-set
    arithmetic.  Kept from the pre-CELF engine so the equivalence
    property tests can assert the lazy engine reproduces it tie for tie.
    """
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")

    remaining = list(results)
    covered: set[int] = set()
    selected: list[CoverageResult] = []

    while remaining:
        best_index = -1
        best_gain = 0
        best_key: tuple = ()
        for index, result in enumerate(remaining):
            gain = len(result.covered_rows - covered)
            if gain < min_support:
                continue
            key = (
                -gain,
                result.transformation.num_placeholders,
                len(result.transformation),
                repr(result.transformation),
            )
            if best_index == -1 or key < best_key:
                best_index = index
                best_gain = gain
                best_key = key
        if best_index == -1 or best_gain == 0:
            break
        choice = remaining.pop(best_index)
        covered |= choice.covered_rows
        selected.append(choice)
    return selected
