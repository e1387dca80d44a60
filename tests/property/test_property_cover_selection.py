"""CELF/bitset cover selection must reproduce the set-based spec tie for tie.

The coverage-v3 selection engine replaces the plain greedy scan of
``greedy_minimal_cover`` with a CELF lazy-greedy over packed bitmasks.  Its
contract is exact: across every instance — including ties on gain,
placeholder count, unit count and rendering, duplicate transformations
and support thresholds — the selected sequence must be
*identical* to ``greedy_minimal_cover_reference`` (``tests/oracles/cover.py``),
which keeps the original set-arithmetic implementation as the executable
spec.  The bitset helpers and set-ops are checked against their frozenset
counterparts the same way.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.cover import greedy_minimal_cover_reference

from repro.core.cover import (
    cover_fraction,
    covered_mask,
    covered_rows,
    greedy_minimal_cover,
    mask_from_rows,
    rows_from_mask,
    top_k_by_coverage,
)
from repro.core.coverage import CoverageResult
from repro.core.transformation import Transformation
from repro.core.units import Literal, Split, Substr

ROW_SETS = st.sets(st.integers(min_value=0, max_value=40), max_size=12)

# A tiny unit pool makes equal transformations — and therefore exact key
# ties down to the rendering — likely, which is precisely what the CELF
# tie-breaking proof needs exercised.
TIE_PRONE_UNITS = st.one_of(
    st.builds(Literal, st.sampled_from(["a", "b", ""])),
    st.builds(Substr, st.just(0), st.integers(min_value=1, max_value=3)),
    st.builds(Split, st.just(","), st.integers(min_value=1, max_value=2)),
)

RESULTS = st.lists(
    st.builds(
        CoverageResult,
        st.builds(Transformation, st.lists(TIE_PRONE_UNITS, min_size=1, max_size=3)),
        ROW_SETS,
    ),
    max_size=20,
)


# A wide fit's candidates: a few wide row sets, then a long tail of
# candidates that cover a row or two, most of whose rows the wide ones
# cover.  Transformations come from a small pool, so keys tie often.
TAIL_ROWS = st.integers(min_value=0, max_value=59)
TAIL_POOL = [
    Transformation(units)
    for units in (
        [Literal("a")],
        [Literal("b")],
        [Substr(0, 1)],
        [Substr(0, 2)],
        [Split(",", 1)],
        [Split(",", 2)],
        [Substr(0, 1), Literal("a")],
        [Substr(0, 1), Literal("b")],
        [Split(",", 1), Literal("a")],
        [Split(",", 2), Substr(0, 3)],
    )
]


@st.composite
def wide_fit_tails(draw):
    wide = draw(
        st.lists(st.sets(TAIL_ROWS, min_size=3, max_size=45), min_size=1, max_size=4)
    )
    narrow = draw(
        st.lists(
            st.sets(TAIL_ROWS, min_size=1, max_size=2), min_size=100, max_size=140
        )
    )
    row_sets = wide + narrow
    transformations = draw(
        st.lists(
            st.sampled_from(TAIL_POOL), min_size=len(row_sets), max_size=len(row_sets)
        )
    )
    results = [
        CoverageResult(transformation, rows)
        for transformation, rows in zip(transformations, row_sets)
    ]
    results += draw(st.lists(st.sampled_from(results), max_size=30))
    return draw(st.permutations(results))


class TestCelfMatchesReferenceGreedy:
    @given(results=RESULTS)
    def test_identical_selection_sequence(self, results):
        assert greedy_minimal_cover(results) == greedy_minimal_cover_reference(
            results
        )

    @given(results=RESULTS, min_support=st.integers(min_value=1, max_value=6))
    def test_identical_under_min_support(self, results, min_support):
        assert greedy_minimal_cover(
            results, min_support=min_support
        ) == greedy_minimal_cover_reference(results, min_support=min_support)

    @given(results=RESULTS)
    def test_identical_with_duplicate_candidates(self, results):
        # Duplicates produce exact key ties; the reference breaks them by
        # input position, and CELF must do the same.
        doubled = list(results) + list(results)
        assert greedy_minimal_cover(doubled) == greedy_minimal_cover_reference(
            doubled
        )

    @settings(
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large]
    )
    @given(
        results=wide_fit_tails(), min_support=st.integers(min_value=1, max_value=3)
    )
    def test_identical_on_wide_fit_tails(self, results, min_support):
        # Once the wide sets are chosen, the tail's bounds are stale at the
        # floor, min_support: the floor pass rescores them in one pass.
        assert greedy_minimal_cover(
            results, min_support=min_support
        ) == greedy_minimal_cover_reference(results, min_support=min_support)

    @given(seed=st.integers(min_value=0, max_value=999))
    def test_identical_on_seeded_random_instances(self, seed):
        # Deterministic volume: classic random set-cover instances with
        # heavy overlap, the regime where lazy bounds go stale the most.
        rng = random.Random(seed)
        universe = rng.randrange(5, 60)
        results = [
            CoverageResult(
                Transformation([Literal(f"t{index}")]),
                frozenset(
                    rng.sample(range(universe), rng.randrange(0, universe))
                ),
            )
            for index in range(rng.randrange(1, 25))
        ]
        min_support = rng.choice([1, 1, 1, 2, 3])
        assert greedy_minimal_cover(
            results, min_support=min_support
        ) == greedy_minimal_cover_reference(results, min_support=min_support)


def _wide_input(num_rows: int = 1000, tail: int = 0) -> list[CoverageResult]:
    """The shape discovery produces on wide rows: five single-row candidates
    per row, a few wide candidates covering every row but the last *tail*
    ones, and two-row candidates over two thirds of that tail.  Placeholder
    counts and lengths vary, and the order is shuffled."""
    covered_by_wide = num_rows - tail
    results = [
        CoverageResult(
            Transformation(
                [Substr(0, 1 + k) for k in range(variant % 3)]
                + [Literal(f"{row}:{variant}")]
            ),
            {row},
        )
        for row in range(num_rows)
        for variant in range(5)
    ]
    wide = [
        ([Split(",", 1)], range(0, 400)),
        ([Split(",", 2)], range(300, 700)),
        ([Substr(0, 4), Literal("-")], range(600, covered_by_wide)),
        ([Split(" ", 1), Literal("x")], range(0, covered_by_wide, 7)),
        ([Split(" ", 2)], range(0, covered_by_wide, 3)),
        ([Substr(0, 2)], range(0, 200)),
    ]
    results += [
        CoverageResult(Transformation(units), rows) for units, rows in wide
    ]
    results += [
        CoverageResult(Transformation([Literal(f"pair{row}")]), {row, row + 1})
        for row in range(covered_by_wide, num_rows - 1, 3)
    ]
    random.Random(0).shuffle(results)
    return results


class TestLazyKeysOnWideInputs:
    """Ranking renders ``repr`` only for candidates that reach the top."""

    def test_few_renders_for_thousands_of_single_row_candidates(
        self, monkeypatch
    ):
        results = _wide_input()
        renders = []
        original = Transformation.__repr__

        def counting_repr(self):
            renders.append(1)
            return original(self)

        monkeypatch.setattr(Transformation, "__repr__", counting_repr)
        top = top_k_by_coverage(results, 5)
        cover = greedy_minimal_cover(results)
        assert len(results) > 5000
        assert len(renders) <= 40
        assert all(result.coverage > 1 for result in top + cover)

    def test_full_tie_breaking_on_the_same_input(self):
        results = _wide_input(tail=40)
        for min_support in (1, 2, 3):
            assert greedy_minimal_cover(
                results, min_support=min_support
            ) == greedy_minimal_cover_reference(results, min_support=min_support)
        full_sort = sorted(
            results,
            key=lambda r: (
                -r.coverage,
                r.transformation.num_placeholders,
                len(r.transformation),
                repr(r.transformation),
            ),
        )
        for k in (1, 5, 7, 30):
            assert top_k_by_coverage(results, k) == full_sort[:k]


class TestBitsetAgreesWithSets:
    @given(rows=ROW_SETS)
    def test_mask_roundtrip(self, rows):
        assert set(rows_from_mask(mask_from_rows(rows))) == rows
        assert mask_from_rows(rows) == sum(1 << row for row in rows)

    @given(rows=ROW_SETS)
    def test_result_representations_are_interchangeable(self, rows):
        transformation = Transformation([Literal("x")])
        from_rows = CoverageResult(transformation, rows)
        from_mask = CoverageResult(
            transformation, covered_mask=mask_from_rows(rows)
        )
        assert from_rows == from_mask
        assert from_mask.covered_rows == frozenset(rows)
        assert from_rows.covered_mask == from_mask.covered_mask
        assert from_rows.coverage == from_mask.coverage == len(rows)

    @given(results=RESULTS, num_pairs=st.integers(min_value=0, max_value=50))
    def test_union_ops_match_set_arithmetic(self, results, num_pairs):
        expected: set[int] = set()
        for result in results:
            expected |= result.covered_rows
        assert covered_rows(results) == frozenset(expected)
        assert covered_mask(results) == mask_from_rows(expected)
        if num_pairs:
            assert cover_fraction(results, num_pairs) == len(expected) / num_pairs
        else:
            assert cover_fraction(results, num_pairs) == 0.0

    @given(results=RESULTS, k=st.integers(min_value=1, max_value=5))
    def test_top_k_ranks_by_popcount(self, results, k):
        ranked = top_k_by_coverage(results, k)
        expected = sorted(
            results,
            key=lambda r: (
                -len(r.covered_rows),
                r.transformation.num_placeholders,
                len(r.transformation),
                repr(r.transformation),
            ),
        )[:k]
        assert ranked == expected
