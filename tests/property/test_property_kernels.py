"""The apply walker and the coverage walker, pinned to the oracle.

Each walker is an *implementation* of the public unit semantics, never a
reinterpretation — so equality here is exact, not approximate:

* **op level** — the bitset helpers of :mod:`repro.core.coverage`
  round-trip row sets through masks on randomized inputs, and the ``|``
  union and ``bit_count`` popcount of cover selection match set union and
  set size;
* **walker level** — the column walker of :mod:`repro.model.apply` returns,
  row by row, exactly ``Transformation.apply``'s outputs, and with
  *within* exactly those of them that are in *within*; the coverage walker
  is pinned to ``Transformation.covers`` row by row and invariant under its
  row blocking and its cache flag.
"""

from __future__ import annotations

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cover import covered_mask
from repro.core.coverage import (
    CoverageResult,
    _build_unit_trie,
    mask_from_rows,
    rows_from_mask,
)
from repro.core.pairs import pairs_from_strings
from repro.core.transformation import Transformation
from repro.core.units import (
    Literal,
    Split,
    SplitSubstr,
    Substr,
    TwoCharSplitSubstr,
)
from repro.model.apply import transform_trie_rows

CELL = st.text(
    alphabet=string.ascii_lowercase + string.digits + " ,-.", max_size=14
)


class UpperSubstr(Substr):
    """A unit subclass the trie cannot specialize: it keeps its apply()."""

    __slots__ = ()

    def apply(self, source: str) -> str | None:
        output = super().apply(source)
        return None if output is None else output.upper()


UNITS = st.one_of(
    st.builds(Literal, st.text(alphabet="ab, ", min_size=0, max_size=3)),
    st.builds(
        Substr,
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=7, max_value=12),
    ),
    st.builds(Split, st.sampled_from([",", " ", "-"]), st.integers(1, 3)),
    st.builds(
        SplitSubstr,
        st.sampled_from([",", " "]),
        st.integers(1, 2),
        st.integers(0, 2),
        st.integers(3, 5),
    ),
    # Both, the first, the second and neither delimiter a single character:
    # the four split modes of the two-character unit.
    st.builds(
        lambda delimiters, index, start, end: TwoCharSplitSubstr(
            *delimiters, index, start, end
        ),
        st.sampled_from([(",", " "), ("-", ", "), (", ", "-"), ("a,", "1 ")]),
        st.integers(1, 3),
        st.integers(0, 1),
        st.integers(2, 4),
    ),
    st.builds(
        UpperSubstr,
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=4, max_value=8),
    ),
)

TRANSFORMATIONS = st.lists(
    st.builds(Transformation, st.lists(UNITS, min_size=1, max_size=4)),
    min_size=0,
    max_size=12,
)

# --------------------------------------------------------------------------
# Op level: the bitset helpers of repro.core.coverage.
# --------------------------------------------------------------------------


ROW_SETS = st.lists(
    st.lists(st.integers(min_value=0, max_value=1200), max_size=40).map(
        lambda rows: sorted(set(rows))
    ),
    max_size=8,
)


@given(row_sets=ROW_SETS)
def test_bitset_roundtrip(row_sets):
    for rows in row_sets:
        mask = mask_from_rows(rows)
        assert rows_from_mask(mask) == rows
        assert mask.bit_count() == len(rows)


@given(row_sets=ROW_SETS)
def test_bitset_union_and_popcount(row_sets):
    # Cover selection unions masks with | and counts them with bit_count;
    # both must agree with the same operations on the row sets.
    masks = [mask_from_rows(rows) for rows in row_sets]
    results = [
        CoverageResult(Transformation([Literal(str(i))]), covered_mask=mask)
        for i, mask in enumerate(masks)
    ]
    union_rows = sorted({row for rows in row_sets for row in rows})
    assert covered_mask(results) == mask_from_rows(union_rows)
    assert rows_from_mask(covered_mask(results)) == union_rows
    assert [result.coverage for result in results] == [
        len(rows) for rows in row_sets
    ]


# --------------------------------------------------------------------------
# Walker level: the apply column walker.
# --------------------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(
    values=st.lists(CELL, max_size=12),
    transformations=TRANSFORMATIONS,
    row_offset=st.sampled_from([0, 5]),
    data=st.data(),
)
def test_apply_walker_identical_and_pinned_to_apply(
    values, transformations, row_offset, data
):
    # Entry (index, row, output) exists iff transformations[index].apply of
    # that row's value returns output (None = row absent), and with
    # *within* iff that output is also in *within*.
    expected = {}
    for index, transformation in enumerate(transformations):
        pairs = [
            (row_offset + slot, output)
            for slot, value in enumerate(values)
            if (output := transformation.apply(value)) is not None
        ]
        if pairs:
            expected[index] = pairs
    trie = _build_unit_trie(transformations)
    assert transform_trie_rows(values, row_offset, trie) == expected

    produced = sorted({output for pairs in expected.values() for _, output in pairs})
    within = set(
        data.draw(st.lists(st.sampled_from(produced), unique=True))
        if produced
        else ()
    )
    within.update(
        text for text in data.draw(st.lists(CELL, max_size=4)) if text not in produced
    )
    kept = {}
    for index, pairs in expected.items():
        pairs = [(row, output) for row, output in pairs if output in within]
        if pairs:
            kept[index] = pairs
    assert transform_trie_rows(values, row_offset, trie, within=within) == kept


# --------------------------------------------------------------------------
# Walker level: the one coverage walker.
# --------------------------------------------------------------------------


STRING_PAIRS = st.lists(st.tuples(CELL, CELL), min_size=0, max_size=10)


@settings(deadline=None, max_examples=60)
@given(
    string_pairs=STRING_PAIRS,
    transformations=TRANSFORMATIONS,
    row_offset=st.sampled_from([0, 7]),
)
def test_coverage_walker_pinned_to_covers(string_pairs, transformations, row_offset):
    """The walker reports, as global row ids, exactly the rows for which
    ``Transformation.covers`` holds — every row, none skipped."""
    from repro.core.coverage import _walk_trie_rows

    pairs = pairs_from_strings(string_pairs)
    trie = _build_unit_trie(transformations)
    covered, _, _, _, rows_processed = _walk_trie_rows(pairs, row_offset, trie)
    assert rows_processed == len(pairs)
    for index, transformation in enumerate(transformations):
        expected = [
            row_offset + slot
            for slot, pair in enumerate(pairs)
            if transformation.covers(pair.source, pair.target)
        ]
        assert covered.get(index, []) == expected


@settings(deadline=None, max_examples=40)
@given(
    string_pairs=STRING_PAIRS,
    transformations=TRANSFORMATIONS,
    block_rows=st.sampled_from([1, 2, 3]),
)
def test_coverage_walker_block_size_invariant(
    string_pairs, transformations, block_rows
):
    """Every cache of the walk is per-row, so the row-block size changes
    neither the covered rows nor a single statistic."""
    from unittest import mock

    from repro.core import coverage

    pairs = pairs_from_strings(string_pairs)
    trie = _build_unit_trie(transformations)
    whole = coverage._walk_trie_rows(pairs, 0, trie)
    with mock.patch.object(coverage, "_WALK_BLOCK_ROWS", block_rows):
        blocked = coverage._walk_trie_rows(pairs, 0, trie)
    assert blocked == whole
