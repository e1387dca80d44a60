"""Integration tests: the discovery engine on the paper's running examples."""

from __future__ import annotations

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.discovery import TransformationDiscovery
from repro.core.pairs import pairs_from_strings
from repro.core.units import Literal, Split, SplitSubstr


class TestNameInitialExample:
    """Figure 1 (right pair): 'Last, First' -> 'F Last'."""

    def test_single_transformation_covers_everything(self, engine, name_initial_pairs):
        result = engine.discover_from_strings(name_initial_pairs)
        assert result.top_coverage == 1.0
        assert result.cover_coverage == 1.0
        assert result.num_transformations == 1

    def test_discovered_transformation_matches_the_paper(self, engine, name_initial_pairs):
        result = engine.discover_from_strings(name_initial_pairs)
        best = result.best.transformation
        # The paper's Section 3.2 walk-through ends with exactly this program.
        assert best == Transformation_expected()

    def test_generalizes_to_unseen_rows(self, engine, name_initial_pairs):
        result = engine.discover_from_strings(name_initial_pairs)
        best = result.best.transformation
        assert best.apply("Czarnecki, Andrzej") == "A Czarnecki"
        assert best.apply("Prus-Czarnecki, Andrzej") == "A Prus-Czarnecki"


def Transformation_expected():
    from repro.core.transformation import Transformation

    return Transformation([SplitSubstr(" ", 2, 0, 1), Literal(" "), Split(",", 1)])


class TestNameEmailExample:
    """Figure 2: 'last, first' -> 'first.last@ualberta.ca'."""

    def test_full_coverage_with_one_transformation(self, engine, name_email_pairs):
        result = engine.discover_from_strings(name_email_pairs)
        assert result.top_coverage == 1.0
        best = result.best.transformation
        assert best.apply("gingrich, douglas") == "douglas.gingrich@ualberta.ca"

    def test_constant_domain_becomes_a_literal(self, engine, name_email_pairs):
        result = engine.discover_from_strings(name_email_pairs)
        literals = [
            unit.text
            for unit in result.best.transformation.units
            if isinstance(unit, Literal)
        ]
        assert any("@ualberta.ca" in text for text in literals)


class TestPhoneExample:
    def test_phone_reformatting_is_learned(self, engine, phone_pairs):
        result = engine.discover_from_strings(phone_pairs)
        assert result.top_coverage == 1.0
        best = result.best.transformation
        assert best.apply("(604) 555-1234") == "1-604-555-1234"


class TestMultiRuleInput:
    def test_covering_set_uses_multiple_transformations(self, engine, mixed_rule_pairs):
        result = engine.discover_from_strings(mixed_rule_pairs)
        assert result.cover_coverage == 1.0
        assert result.num_transformations == 2
        # No single transformation can cover both formatting families.
        assert result.top_coverage == pytest.approx(0.5)

    def test_uncovered_rows_empty_when_fully_covered(self, engine, mixed_rule_pairs):
        result = engine.discover_from_strings(mixed_rule_pairs)
        assert result.cover_coverage == 1.0


class TestNoiseHandling:
    def test_noisy_rows_do_not_block_discovery(self, engine, name_initial_pairs):
        noisy = name_initial_pairs + [("garbage input", "unrelated output ###")]
        result = engine.discover_from_strings(noisy)
        # The clean rows are still covered by the paper's transformation.
        assert result.top_coverage >= len(name_initial_pairs) / len(noisy)

    def test_min_support_filters_noise_only_rules(self, name_initial_pairs):
        noisy = name_initial_pairs + [("garbage input", "unrelated output ###")]
        config = DiscoveryConfig(min_support=2)
        result = TransformationDiscovery(config).discover_from_strings(noisy)
        for coverage in result.cover:
            assert coverage.coverage >= 2


class TestLemmaExamples:
    def test_lemma_3_non_maximal_placeholders_can_win(self):
        """The Split-based example before Lemma 3.

        Sources have a unique separator; splitting on it covers one row each,
        whereas the literal 'a' + split on 'a' covers both rows.
        """
        pairs = [
            ("12345sabcdefg", "abcdefg"),
            ("67890taxxxx", "axxxx"),
        ]
        result = TransformationDiscovery(DiscoveryConfig()).discover_from_strings(pairs)
        assert result.cover_coverage == 1.0

    def test_substr_example_of_lemma_2(self):
        """The Substr example of Section 4.1.2 (two rows, different programs)."""
        pairs = [
            ("abcdefghijklmn", "defg.jkb"),
            ("0123456789abcd", "d456.9ab"),
        ]
        result = TransformationDiscovery(DiscoveryConfig()).discover_from_strings(pairs)
        # Both rows are coverable (individually or jointly).
        assert result.cover_coverage == 1.0


class TestSamplingBehaviour:
    def test_sampled_discovery_still_covers_full_input(self):
        # Deterministic corpus: 'last, first' -> 'first last'.
        pairs = [
            (f"last{i:03d}, first{i:03d}", f"first{i:03d} last{i:03d}")
            for i in range(60)
        ]
        config = DiscoveryConfig(sample_size=10, sample_seed=3)
        result = TransformationDiscovery(config).discover_from_strings(pairs)
        assert result.stats.num_pairs == 60
        assert result.top_coverage == 1.0

    def test_sampling_reduces_generation_work(self):
        pairs = [
            (f"last{i:03d}, first{i:03d}", f"first{i:03d} last{i:03d}")
            for i in range(60)
        ]
        full = TransformationDiscovery(DiscoveryConfig()).discover_from_strings(pairs)
        sampled = TransformationDiscovery(
            DiscoveryConfig(sample_size=10)
        ).discover_from_strings(pairs)
        assert (
            sampled.stats.generated_transformations
            < full.stats.generated_transformations
        )


class TestEmptyAndDegenerateInputs:
    def test_empty_input(self, engine):
        result = engine.discover([])
        assert result.best is None
        assert result.cover_coverage == 0.0

    def test_single_pair(self, engine):
        result = engine.discover_from_strings([("Rafiei, Davood", "D Rafiei")])
        assert result.top_coverage == 1.0

    def test_identical_source_and_target(self, engine):
        result = engine.discover_from_strings([("same", "same"), ("also", "also")])
        assert result.cover_coverage == 1.0

    def test_empty_target_rows_are_ignored(self, engine):
        result = engine.discover_from_strings([("abc", ""), ("Rafiei, Davood", "D Rafiei")])
        # The empty-target row cannot be covered, but discovery still works.
        assert result.top_coverage >= 0.5

    def test_pairs_from_row_pairs(self, engine):
        result = engine.discover(
            pairs_from_strings([("Rafiei, Davood", "D Rafiei")])
        )
        assert result.best is not None
