"""Property-based tests for the discovery pipeline invariants."""

from __future__ import annotations

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DiscoveryConfig
from repro.core.coverage import CoverageComputer
from repro.core.discovery import TransformationDiscovery
from repro.core.generation import TransformationGenerator
from repro.core.pairs import pairs_from_strings
from repro.core.placeholders import PlaceholderExtractor
from repro.core.skeletons import SkeletonBuilder

WORD = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
TEXT = st.text(
    alphabet=string.ascii_lowercase + string.digits + " ,.-@", min_size=0, max_size=30
)


class TestPlaceholderInvariants:
    @given(source=TEXT, target=TEXT)
    @settings(max_examples=150)
    def test_placeholders_are_common_substrings_tiling_the_target(self, source, target):
        extractor = PlaceholderExtractor()
        placeholders = extractor.maximal_placeholders(source, target)
        previous_end = 0
        for placeholder in placeholders:
            assert placeholder.text in source
            assert (
                target[placeholder.target_start : placeholder.target_end]
                == placeholder.text
            )
            assert placeholder.target_start >= previous_end
            previous_end = placeholder.target_end

    @given(source=TEXT, target=TEXT)
    @settings(max_examples=100)
    def test_source_match_positions_are_correct(self, source, target):
        extractor = PlaceholderExtractor()
        for placeholder in extractor.maximal_placeholders(source, target):
            for position in placeholder.source_matches:
                assert source[position : position + placeholder.length] == placeholder.text


class TestSkeletonInvariants:
    @given(source=TEXT, target=TEXT)
    @settings(max_examples=150)
    def test_skeletons_spell_the_target_and_respect_the_budget(self, source, target):
        config = DiscoveryConfig()
        builder = SkeletonBuilder(config)
        for skeleton in builder.build(source, target):
            assert "".join(piece.text for piece in skeleton.pieces) == target
            assert skeleton.num_placeholders <= config.max_placeholders


class TestGenerationInvariants:
    @given(source=TEXT, target=TEXT)
    @settings(max_examples=75)
    def test_generated_transformations_cover_their_own_row(self, source, target):
        if not target:
            return
        config = DiscoveryConfig()
        builder = SkeletonBuilder(config)
        generator = TransformationGenerator(config)
        skeletons = builder.build(source, target)
        for transformation in generator.from_row(source, skeletons):
            assert transformation.apply(source) == target


class TestDiscoveryInvariants:
    @given(
        firsts=st.lists(WORD, min_size=2, max_size=6, unique=True),
        lasts=st.lists(WORD, min_size=2, max_size=6, unique=True),
    )
    @settings(max_examples=30, deadline=None)
    def test_structured_inputs_are_fully_covered(self, firsts, lasts):
        """'last, first' -> 'first last' corpora are always fully coverable."""
        pairs = [
            (f"{last}, {first}", f"{first} {last}")
            for first, last in zip(firsts, lasts)
        ]
        result = TransformationDiscovery().discover_from_strings(pairs)
        assert result.cover_coverage == 1.0

    @given(
        pairs=st.lists(
            st.tuples(TEXT.filter(bool), TEXT.filter(bool)), min_size=1, max_size=6
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_reported_coverage_is_consistent_with_reapplication(self, pairs):
        """Every row a transformation claims to cover is actually covered."""
        row_pairs = pairs_from_strings(pairs)
        result = TransformationDiscovery().discover(row_pairs)
        for coverage in list(result.top) + list(result.cover):
            for row in coverage.covered_rows:
                source, target = pairs[row]
                assert coverage.transformation.apply(source) == target

    @given(
        pairs=st.lists(
            st.tuples(TEXT.filter(bool), TEXT.filter(bool)), min_size=1, max_size=5
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_cover_coverage_at_least_top_coverage(self, pairs):
        result = TransformationDiscovery().discover_from_strings(pairs)
        assert result.cover_coverage >= result.top_coverage - 1e-12

    @given(
        pairs=st.lists(
            st.tuples(TEXT.filter(bool), TEXT.filter(bool)), min_size=1, max_size=5
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_unit_cache_does_not_change_the_outcome(self, pairs):
        with_cache = TransformationDiscovery(
            DiscoveryConfig(use_unit_cache=True)
        ).discover_from_strings(pairs)
        without_cache = TransformationDiscovery(
            DiscoveryConfig(use_unit_cache=False)
        ).discover_from_strings(pairs)
        assert with_cache.top_coverage == without_cache.top_coverage
        assert with_cache.cover_coverage == without_cache.cover_coverage

    @given(
        pairs=st.lists(
            st.tuples(TEXT.filter(bool), TEXT.filter(bool)), min_size=1, max_size=5
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_duplicate_removal_does_not_change_the_outcome(self, pairs):
        with_dedup = TransformationDiscovery(
            DiscoveryConfig(use_duplicate_removal=True)
        ).discover_from_strings(pairs)
        without_dedup = TransformationDiscovery(
            DiscoveryConfig(use_duplicate_removal=False)
        ).discover_from_strings(pairs)
        assert with_dedup.top_coverage == without_dedup.top_coverage
        assert with_dedup.cover_coverage == without_dedup.cover_coverage


class TestCoverageComputerInvariants:
    @given(
        pairs=st.lists(
            st.tuples(TEXT.filter(bool), TEXT.filter(bool)), min_size=1, max_size=6
        ),
        source=TEXT.filter(bool),
        target=TEXT.filter(bool),
    )
    @settings(max_examples=50, deadline=None)
    def test_cache_and_no_cache_agree_on_arbitrary_transformations(
        self, pairs, source, target
    ):
        config = DiscoveryConfig()
        builder = SkeletonBuilder(config)
        generator = TransformationGenerator(config)
        transformations = list(
            generator.from_row(source, builder.build(source, target))
        )[:25]
        if not transformations:
            return
        row_pairs = pairs_from_strings(pairs)
        cached = CoverageComputer(row_pairs, use_unit_cache=True)
        plain = CoverageComputer(row_pairs, use_unit_cache=False)
        for transformation in transformations:
            assert (
                cached.coverage_of(transformation).covered_rows
                == plain.coverage_of(transformation).covered_rows
            )
