"""Unit tests for coverage computation, pruning, and cover selection."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles.cover import greedy_minimal_cover_reference

from repro.core.cover import (
    cover_fraction,
    covered_mask,
    covered_rows,
    greedy_minimal_cover,
    top_k_by_coverage,
)
from repro.core.coverage import (
    CoverageComputer,
    CoverageResult,
    _build_anchor_automaton,
    mask_from_rows,
    rows_from_mask,
)
from repro.core.pairs import pairs_from_strings
from repro.core.transformation import Transformation
from repro.core.units import Literal, Split, SplitSubstr, Substr


@pytest.fixture
def name_pairs():
    return pairs_from_strings(
        [
            ("Rafiei, Davood", "D Rafiei"),
            ("Bowling, Michael", "M Bowling"),
            ("Gosgnach, Simon", "S Gosgnach"),
        ]
    )


@pytest.fixture
def paper_transformation():
    return Transformation([SplitSubstr(" ", 2, 0, 1), Literal(" "), Split(",", 1)])


class TestCoverageComputer:
    def test_full_coverage(self, name_pairs, paper_transformation):
        computer = CoverageComputer(name_pairs)
        result = computer.coverage_of(paper_transformation)
        assert result.covered_rows == frozenset({0, 1, 2})
        assert result.coverage == 3
        assert result.coverage_fraction(3) == 1.0

    def test_partial_coverage(self, name_pairs):
        transformation = Transformation([Literal("D "), Split(",", 1)])
        computer = CoverageComputer(name_pairs)
        result = computer.coverage_of(transformation)
        assert result.covered_rows == frozenset({0})

    def test_zero_coverage(self, name_pairs):
        transformation = Transformation([Literal("no such value")])
        computer = CoverageComputer(name_pairs)
        assert computer.coverage_of(transformation).coverage == 0

    def test_coverage_fraction_of_empty_input(self):
        result = CoverageResult(Transformation([Literal("x")]), frozenset())
        assert result.coverage_fraction(0) == 0.0

    def test_batch_matches_individual(self, name_pairs, paper_transformation):
        other = Transformation([Literal("D "), Split(",", 1)])
        computer = CoverageComputer(name_pairs)
        batch = computer.coverage_of_all([paper_transformation, other])
        assert batch[0].covered_rows == frozenset({0, 1, 2})
        assert batch[1].covered_rows == frozenset({0})

    def test_batched_and_unbatched_paths_agree(self, name_pairs, paper_transformation):
        transformations = [
            paper_transformation,
            Transformation([Literal("D "), Split(",", 1)]),
            Transformation([Literal("zzz")]),
            Transformation([Split(",", 2), Literal(" "), Split(",", 1)]),
        ]
        batched = CoverageComputer(name_pairs).coverage_of_all(
            transformations, batched=True
        )
        unbatched = CoverageComputer(name_pairs).coverage_of_all(
            transformations, batched=False
        )
        assert batched == unbatched

    def test_batched_accounts_every_application(self, name_pairs, paper_transformation):
        transformations = [
            paper_transformation,
            Transformation([Literal("zzz"), Split(",", 1)]),
            Transformation([Literal("zzz"), Split(",", 2)]),
        ]
        computer = CoverageComputer(name_pairs)
        computer.coverage_of_all(transformations, batched=True)
        stats = computer.stats
        # Every (transformation, row) application is classified exactly once,
        # as either skipped (hit) or evaluated (miss).
        assert stats.cache_hits + stats.cache_misses == len(transformations) * 3
        # The shared bad first unit skips both zzz-transformations per row.
        assert stats.cache_hits >= 6

    def test_batched_default_follows_unit_cache(self, name_pairs):
        transformation = Transformation([Literal("zzz")])
        cached = CoverageComputer(name_pairs, use_unit_cache=True)
        cached.coverage_of_all([transformation, transformation])
        # Batched by default: the duplicate is skipped via the shared trie.
        assert cached.stats.cache_hits > 0
        uncached = CoverageComputer(name_pairs, use_unit_cache=False)
        uncached.coverage_of_all([transformation, transformation])
        # Cache off falls back to the one-at-a-time path: never a hit.
        assert uncached.stats.cache_hits == 0

    def test_batched_without_cache_reports_no_cache_hits(self, name_pairs):
        transformations = [
            Transformation([Literal("zzz"), Substr(0, 1)]),
            Transformation([Literal("zzz"), Substr(0, 2)]),
        ]
        computer = CoverageComputer(name_pairs, use_unit_cache=False)
        computer.coverage_of_all(transformations, batched=True)
        # The batch memo skips repeated failing units, but with the unit
        # cache disabled those skips are not cache hits.
        assert computer.stats.cache_hits == 0
        assert computer.stats.cache_misses == len(transformations) * 3

    def test_batched_without_cache_counts_like_unbatched(
        self, name_pairs, paper_transformation
    ):
        # The batch walk needs the unit cache; without it, asking for a
        # batched walk takes the one-at-a-time path, counters included.
        transformations = [
            paper_transformation,
            Transformation([Literal("zzz"), Split(",", 1)]),
            Transformation([Split(",", 2), Literal(" "), Split(",", 1)]),
        ]
        runs = []
        for batched in (True, False):
            computer = CoverageComputer(name_pairs, use_unit_cache=False)
            results = computer.coverage_of_all(transformations, batched=batched)
            stats = computer.stats
            runs.append(
                (
                    [result.covered_rows for result in results],
                    stats.cache_hits,
                    stats.cache_misses,
                    stats.applications,
                )
            )
        assert runs[0] == runs[1]

    def test_batched_empty_inputs(self):
        assert CoverageComputer([]).coverage_of_all([], batched=True) == []

    def test_literal_prefilter_skips_anchored_subtrees(self, name_pairs):
        # "zzz" occurs in no target: the prefilter prunes both anchored
        # transformations per row without applying any unit, and the
        # deep-anchored one is pruned before its Split ever runs.
        anchored = [
            Transformation([Literal("zzz"), Split(",", 1)]),
            Transformation([Split(",", 1), Literal("zzz")]),
        ]
        computer = CoverageComputer(name_pairs)
        results = computer.coverage_of_all(anchored, batched=True)
        assert all(result.coverage == 0 for result in results)
        assert computer.stats.cache_hits == len(anchored) * 3
        assert computer.stats.applications == 0

    def test_prefilter_is_noop_without_literal_anchors(self, name_pairs):
        # Transformations without literal units carry no anchors; the walk
        # must still match the unbatched reference exactly.
        transformations = [
            Transformation([Split(",", 2), Literal(""), Split(",", 1)]),
            Transformation([Substr(0, 1)]),
        ]
        batched = CoverageComputer(name_pairs).coverage_of_all(
            transformations, batched=True
        )
        unbatched = CoverageComputer(name_pairs).coverage_of_all(
            transformations, batched=False
        )
        assert batched == unbatched

    @given(
        texts=st.lists(
            st.text(alphabet="ab, ", min_size=1, max_size=5),
            min_size=1,
            max_size=12,
            unique=True,
        ),
        target=st.text(alphabet="ab, ", max_size=20),
    )
    def test_anchor_scan_matches_substring_search(self, texts, target):
        # The automaton is the prefilter's ground truth for anchor presence:
        # one scan must find exactly the anchors a substring search would,
        # overlapping and nested ones included.
        goto, fail, outputs = _build_anchor_automaton(texts)
        found: set[int] = set()
        state = 0
        for char in target:
            next_state = goto[state].get(char)
            while next_state is None and state:
                state = fail[state]
                next_state = goto[state].get(char)
            state = next_state if next_state is not None else 0
            found.update(outputs[state])
        assert found == {index for index, text in enumerate(texts) if text in target}


class TestUnitCache:
    def test_cache_hits_accumulate_for_repeated_bad_units(self, name_pairs):
        bad_unit = Literal("zzz")
        transformations = [
            Transformation([bad_unit, Substr(0, 1)]),
            Transformation([bad_unit, Substr(0, 2)]),
            Transformation([bad_unit, Substr(0, 3)]),
        ]
        computer = CoverageComputer(name_pairs, use_unit_cache=True)
        for transformation in transformations:
            computer.coverage_of(transformation)
        # First transformation misses on every row (3 misses) and records the
        # bad unit; the other two hit the cache for every row.
        assert computer.stats.cache_hits == 6
        assert computer.stats.cache_misses == 3

    def test_cache_does_not_change_results(self, name_pairs, paper_transformation):
        transformations = [
            paper_transformation,
            Transformation([Literal("D "), Split(",", 1)]),
            Transformation([Literal("zzz"), Split(",", 1)]),
            Transformation([Split(",", 2), Literal(" "), Split(",", 1)]),
        ]
        cached = CoverageComputer(name_pairs, use_unit_cache=True)
        uncached = CoverageComputer(name_pairs, use_unit_cache=False)
        for transformation in transformations:
            assert (
                cached.coverage_of(transformation).covered_rows
                == uncached.coverage_of(transformation).covered_rows
            )

    def test_cache_disabled_never_hits(self, name_pairs):
        computer = CoverageComputer(name_pairs, use_unit_cache=False)
        transformation = Transformation([Literal("zzz")])
        computer.coverage_of(transformation)
        computer.coverage_of(transformation)
        assert computer.stats.cache_hits == 0


class TestTopK:
    def test_orders_by_coverage(self):
        t_small = CoverageResult(Transformation([Literal("a")]), frozenset({0}))
        t_large = CoverageResult(Transformation([Literal("b")]), frozenset({0, 1, 2}))
        assert top_k_by_coverage([t_small, t_large], 1)[0] is t_large

    def test_tie_broken_by_length(self):
        short = CoverageResult(Transformation([Substr(0, 1)]), frozenset({0, 1}))
        long = CoverageResult(
            Transformation([Substr(0, 1), Literal("x"), Substr(1, 2)]),
            frozenset({2, 3}),
        )
        assert top_k_by_coverage([long, short], 1)[0] is short

    def test_k_validation(self):
        with pytest.raises(ValueError):
            top_k_by_coverage([], 0)


class TestGreedyCover:
    def make_result(self, rows, label):
        return CoverageResult(Transformation([Literal(label)]), frozenset(rows))

    def test_selects_minimal_set(self):
        a = self.make_result({0, 1, 2}, "a")
        b = self.make_result({3, 4}, "b")
        c = self.make_result({0, 1}, "c")
        cover = greedy_minimal_cover([c, b, a])
        assert [r.transformation for r in cover] == [
            a.transformation,
            b.transformation,
        ]

    def test_respects_min_support(self):
        a = self.make_result({0, 1, 2}, "a")
        b = self.make_result({3}, "b")
        cover = greedy_minimal_cover([a, b], min_support=2)
        assert [r.transformation for r in cover] == [a.transformation]

    def test_no_progress_stops(self):
        a = self.make_result({0, 1}, "a")
        duplicate = self.make_result({0, 1}, "b")
        cover = greedy_minimal_cover([a, duplicate])
        assert len(cover) == 1

    def test_greedy_approximation_on_classic_instance(self):
        """Greedy picks the big set first even when pairs of sets also cover."""
        big = self.make_result({0, 1, 2, 3}, "big")
        left = self.make_result({0, 1, 4}, "left")
        right = self.make_result({2, 3, 5}, "right")
        cover = greedy_minimal_cover([left, right, big])
        assert cover[0].transformation == big.transformation
        assert covered_rows(cover) == frozenset(range(6))

    def test_min_support_validation(self):
        with pytest.raises(ValueError):
            greedy_minimal_cover([], min_support=0)


class TestCelfAgainstReference:
    def make_result(self, rows, label):
        return CoverageResult(Transformation([Literal(label)]), frozenset(rows))

    def test_matches_reference_on_overlapping_sets(self):
        results = [
            self.make_result({0, 1, 2, 3}, "big"),
            self.make_result({0, 1, 4}, "left"),
            self.make_result({2, 3, 5}, "right"),
            self.make_result({4, 5}, "tail"),
        ]
        assert greedy_minimal_cover(results) == greedy_minimal_cover_reference(
            results
        )

    def test_matches_reference_with_support(self):
        results = [self.make_result(set(range(i)), str(i)) for i in range(6)]
        assert greedy_minimal_cover(
            results, min_support=2
        ) == greedy_minimal_cover_reference(results, min_support=2)

    def test_reference_validates_min_support(self):
        with pytest.raises(ValueError):
            greedy_minimal_cover_reference([], min_support=0)


class TestCoverageResultRepresentations:
    def test_mask_and_rows_are_interchangeable(self):
        transformation = Transformation([Literal("x")])
        from_rows = CoverageResult(transformation, frozenset({0, 3, 70}))
        from_mask = CoverageResult(
            transformation, covered_mask=(1 << 0) | (1 << 3) | (1 << 70)
        )
        assert from_rows == from_mask
        assert from_mask.covered_rows == frozenset({0, 3, 70})
        assert from_rows.covered_mask == from_mask.covered_mask
        assert from_mask.coverage == 3
        assert from_mask.coverage_fraction(6) == 0.5

    def test_defaults_to_empty(self):
        result = CoverageResult(Transformation([Literal("x")]))
        assert result.covered_rows == frozenset()
        assert result.covered_mask == 0
        assert result.coverage == 0

    def test_mask_helpers_roundtrip(self):
        rows = [0, 7, 8, 63, 64, 100]
        assert rows_from_mask(mask_from_rows(rows)) == rows
        assert mask_from_rows([]) == 0
        assert rows_from_mask(0) == []
        with pytest.raises(ValueError):
            rows_from_mask(-1)


class TestCoverHelpers:
    def test_covered_rows_union(self):
        a = CoverageResult(Transformation([Literal("a")]), frozenset({0, 1}))
        b = CoverageResult(Transformation([Literal("b")]), frozenset({1, 2}))
        assert covered_rows([a, b]) == frozenset({0, 1, 2})
        assert covered_mask([a, b]) == 0b111

    def test_cover_fraction(self):
        a = CoverageResult(Transformation([Literal("a")]), frozenset({0, 1}))
        assert cover_fraction([a], 4) == 0.5
        assert cover_fraction([], 0) == 0.0
