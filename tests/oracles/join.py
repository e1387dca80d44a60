"""The one-transformation-at-a-time join loop: the executable spec of
:meth:`repro.join.joiner.TransformationJoiner.join_values`.

The batched join must reproduce this loop's pairs, their order and the
first-match attribution; ``tests/differential/test_join.py`` asserts it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.join.joiner import JoinResult, TransformationJoiner
from repro.matching.index import ValueIndex


def join_values_reference(
    joiner: TransformationJoiner,
    source_values: Sequence[str],
    target_values: Sequence[str],
) -> JoinResult:
    """The one-transformation-at-a-time join loop (executable spec).

    Applies each transformation to every source value in turn — no
    shared-prefix reuse, no sharding.  Kept verbatim from the pre-model
    joiner so the equivalence tests can assert the batched path
    reproduces it pair for pair.
    """
    if joiner.case_insensitive:
        source_values = [value.lower() for value in source_values]
        target_values = [value.lower() for value in target_values]
    target_index = ValueIndex.build(target_values)

    result = JoinResult()
    seen: set[tuple[int, int]] = set()
    for transformation in joiner.transformations:
        for source_row, source_value in enumerate(source_values):
            transformed = transformation.apply(source_value)
            if transformed is None:
                continue
            for target_row in target_index.rows_for(transformed):
                key = (source_row, target_row)
                if key in seen:
                    continue
                seen.add(key)
                result.pairs.append(key)
                result.matched_by[key] = transformation
    return result
