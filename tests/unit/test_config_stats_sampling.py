"""Unit tests for DiscoveryConfig, DiscoveryStats, and the sampling analysis."""

from __future__ import annotations

import math

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.sampling import (
    autojoin_expected_covered_subsets,
    autojoin_subset_success_probability,
    minimum_sample_size,
    probability_covered_once,
    probability_discovered,
    probability_not_covered,
    required_subsets_for_autojoin,
)
from repro.core.stats import DiscoveryStats


class TestDiscoveryConfig:
    def test_defaults_follow_paper(self):
        config = DiscoveryConfig()
        assert config.max_placeholders == 3
        assert "TwoCharSplitSubstr" not in config.enabled_units
        assert config.min_support == 1

    def test_spreadsheet_preset_uses_four_placeholders(self):
        assert DiscoveryConfig.spreadsheet().max_placeholders == 4

    def test_open_data_preset_samples_and_thresholds(self):
        config = DiscoveryConfig.open_data(360_125)
        assert config.sample_size == 3000
        assert config.min_support == max(2, int(0.01 * 3000))

    def test_open_data_preset_with_small_input(self):
        config = DiscoveryConfig.open_data(100)
        assert config.sample_size == 100

    def test_replace_returns_modified_copy(self):
        config = DiscoveryConfig()
        other = config.replace(max_placeholders=5)
        assert other.max_placeholders == 5
        assert config.max_placeholders == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_placeholders": 0},
            {"min_placeholder_length": 0},
            {"min_support": 0},
            {"sample_size": -1},
            {"top_k": 0},
            {"enabled_units": ("Literal", "Bogus")},
            {"enabled_units": ("Substr",)},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DiscoveryConfig(**kwargs)

    @pytest.mark.parametrize("matches", [0, -1])
    def test_max_matches_checked_at_construction_under_its_own_name(self, matches):
        with pytest.raises(
            ValueError, match=f"max_matches_per_placeholder must be >= 1, got {matches}"
        ):
            DiscoveryConfig(max_matches_per_placeholder=matches)


class TestDiscoveryStats:
    def test_duplicate_ratio(self):
        stats = DiscoveryStats(
            generated_transformations=100, unique_transformations=40
        )
        assert stats.duplicate_transformations == 60
        assert stats.duplicate_ratio == pytest.approx(0.6)

    def test_duplicate_ratio_of_empty_run(self):
        assert DiscoveryStats().duplicate_ratio == 0.0

    def test_cache_hit_ratio(self):
        stats = DiscoveryStats(cache_hits=90, cache_misses=10)
        assert stats.cache_hit_ratio == pytest.approx(0.9)
        assert DiscoveryStats().cache_hit_ratio == 0.0

    def test_as_dict_contains_stage_times(self):
        stats = DiscoveryStats(stage_seconds={"unit_extraction": 0.25})
        flattened = stats.as_dict()
        assert flattened["seconds_unit_extraction"] == 0.25
        assert flattened["total_seconds"] == 0.25


class TestSamplingAnalysis:
    def test_probabilities_sum_to_at_most_one(self):
        for coverage in [0.05, 0.3, 0.7]:
            for size in [1, 5, 50, 200]:
                p0 = probability_not_covered(coverage, size)
                p1 = probability_covered_once(coverage, size)
                assert 0.0 <= p0 <= 1.0
                assert 0.0 <= p1 <= 1.0
                assert p0 + p1 <= 1.0 + 1e-12

    def test_paper_example_five_percent_coverage_sample_100(self):
        """Section 5.3: q=0.05, s=100 gives ~0.96 discovery probability."""
        probability = probability_discovered(0.05, 100)
        assert probability == pytest.approx(0.96, abs=0.01)

    def test_paper_example_autojoin_half_coverage_subset_5(self):
        """Section 3.2: q=0.5, s=5 needs 32 subsets for an expectation of 1."""
        assert autojoin_subset_success_probability(0.5, 5) == pytest.approx(0.03125)
        assert required_subsets_for_autojoin(0.5, 5) == 32

    def test_paper_example_autojoin_five_percent_subset_2(self):
        """Section 5.3: q=0.05, s=2 needs 400 subsets."""
        assert required_subsets_for_autojoin(0.05, 2) == 400

    def test_expected_covered_subsets_scales_linearly(self):
        single = autojoin_expected_covered_subsets(0.2, 2, 1)
        many = autojoin_expected_covered_subsets(0.2, 2, 50)
        assert many == pytest.approx(50 * single)

    def test_discovery_probability_monotone_in_sample_size(self):
        values = [probability_discovered(0.1, s) for s in (5, 20, 80, 320)]
        assert values == sorted(values)

    def test_minimum_sample_size(self):
        size = minimum_sample_size(0.05, 0.95)
        assert probability_discovered(0.05, size) >= 0.95
        assert probability_discovered(0.05, size - 1) < 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            probability_discovered(1.5, 10)
        with pytest.raises(ValueError):
            probability_discovered(0.5, -1)
        with pytest.raises(ValueError):
            required_subsets_for_autojoin(0.0, 2)
        with pytest.raises(ValueError):
            minimum_sample_size(0.5, 1.5)

    def test_zero_coverage_never_discovered(self):
        assert probability_discovered(0.0, 1000) == 0.0

    def test_full_coverage_discovered_with_two_rows(self):
        assert probability_discovered(1.0, 2) == 1.0
        assert math.isclose(probability_discovered(1.0, 1), 0.0)

    def test_single_row_sample_is_never_discovered(self):
        for coverage in (0.0, 0.5, 1.0):
            assert probability_discovered(coverage, 0) == 0.0
            assert probability_discovered(coverage, 1) == 0.0
        assert probability_covered_once(0.5, 0) == 0.0

    def test_closed_forms_at_half_coverage(self):
        # s=3, q=0.5: P0 = 0.5^3, P1 = 3 * 0.5 * 0.5^2, discovered = 1 - P0 - P1.
        assert probability_not_covered(0.5, 3) == pytest.approx(0.125)
        assert probability_covered_once(0.5, 3) == pytest.approx(0.375)
        assert probability_discovered(0.5, 3) == pytest.approx(0.5)

    def test_autojoin_subset_probability_is_coverage_to_the_subset_size(self):
        assert autojoin_subset_success_probability(0.3, 3) == pytest.approx(0.027)
        assert autojoin_subset_success_probability(0.3, 0) == 1.0
        assert required_subsets_for_autojoin(1.0, 7) == 1

    def test_expected_covered_subsets_rejects_a_negative_count(self):
        assert autojoin_expected_covered_subsets(0.5, 2, 0) == 0.0
        with pytest.raises(ValueError, match="num_subsets"):
            autojoin_expected_covered_subsets(0.5, 2, -1)

    @pytest.mark.parametrize(
        ("coverage", "confidence"), [(0.0, 0.9), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.9)]
    )
    def test_minimum_sample_size_rejects_unreachable_targets(
        self, coverage, confidence
    ):
        with pytest.raises(ValueError):
            minimum_sample_size(coverage, confidence)
