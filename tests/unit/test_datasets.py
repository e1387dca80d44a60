"""Unit tests for the dataset generators (repro.datasets)."""

from __future__ import annotations

import pytest

from repro.core.pairs import pairs_from_strings
from repro.datasets.base import BenchmarkDataset, TablePair
from repro.datasets.open_data import generate_open_data
from repro.datasets.registry import available_datasets, load_dataset
from repro.datasets.spreadsheet import (
    FAMILIES,
    generate_spreadsheet_dataset,
    generate_task_pair,
)
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_length_sweep_pair,
    generate_synthetic_dataset,
    generate_table_pair,
)
from repro.datasets.web_tables import TOPICS, generate_pair, generate_web_tables_dataset
from repro.table.io import read_csv
from repro.table.table import Table


def _shares_a_block(source: str, target: str, length: int) -> bool:
    """True when some *length*-character block of *target* occurs in *source*."""
    return any(
        target[start : start + length] in source
        for start in range(len(target) - length + 1)
    )


class TestTablePair:
    def make_pair(self) -> TablePair:
        return TablePair(
            name="toy",
            source=Table({"j": ["a, b", "c, d"], "extra": ["1", "2"]}),
            target=Table({"j": ["b a", "d c"]}),
            source_column="j",
            target_column="j",
            golden_pairs=[(0, 0), (1, 1)],
        )

    def test_basic_properties(self):
        pair = self.make_pair()
        assert pair.num_source_rows == 2
        assert pair.num_target_rows == 2
        assert pair.average_join_length > 0

    def test_golden_string_pairs(self):
        pair = self.make_pair()
        assert pair.golden_string_pairs() == [("a, b", "b a"), ("c, d", "d c")]

    def test_average_join_length_spans_both_join_columns(self):
        # Source cells have 4 characters, target cells 3; the "extra"
        # column is not a join column and does not count.
        assert self.make_pair().average_join_length == 3.5

    def test_save_and_load_round_trip(self, tmp_path):
        pair = self.make_pair()
        pair.save(tmp_path)
        assert read_csv(tmp_path / "toy_source.csv") == pair.source
        assert read_csv(tmp_path / "toy_target.csv") == pair.target
        golden = read_csv(tmp_path / "toy_golden.csv")
        assert [
            (int(s), int(t)) for s, t in zip(golden["source_row"], golden["target_row"])
        ] == pair.golden_pairs

    def test_save_without_golden_pairs_writes_a_header_only_file(self, tmp_path):
        pair = self.make_pair()
        pair.golden_pairs = []
        pair.save(tmp_path / "out")
        golden = read_csv(tmp_path / "out" / "toy_golden.csv")
        assert golden.column_names == ("source_row", "target_row")
        assert golden.num_rows == 0

    def test_dataset_iteration_and_indexing(self):
        dataset = BenchmarkDataset(
            name="toy", pairs=[self.make_pair(), self.make_pair()]
        )
        assert len(dataset) == 2
        assert len(list(iter(dataset))) == 2
        assert dataset[0].name == "toy"


class TestSyntheticGenerator:
    def test_reproducible_with_same_seed(self):
        pair_a, rules_a = generate_table_pair(SyntheticConfig(num_rows=20, seed=5))
        pair_b, rules_b = generate_table_pair(SyntheticConfig(num_rows=20, seed=5))
        assert pair_a.source == pair_b.source
        assert pair_a.target == pair_b.target
        assert rules_a == rules_b

    def test_different_seeds_differ(self):
        pair_a, _ = generate_table_pair(SyntheticConfig(num_rows=20, seed=1))
        pair_b, _ = generate_table_pair(SyntheticConfig(num_rows=20, seed=2))
        assert pair_a.source != pair_b.source

    def test_row_lengths_respect_range(self):
        config = SyntheticConfig(num_rows=30, min_length=20, max_length=35, seed=3)
        pair, _ = generate_table_pair(config)
        for value in pair.source["value"]:
            assert 20 <= len(value) <= 35

    def test_synth_nl_uses_long_rows(self):
        config = SyntheticConfig.synth(10, long_rows=True, seed=0)
        assert (config.min_length, config.max_length) == (40, 70)

    def test_targets_produced_by_ground_truth_rules(self):
        config = SyntheticConfig(num_rows=25, seed=11)
        pair, rules = generate_table_pair(config)
        for source, target in pair.golden_string_pairs():
            assert any(rule.apply(source) == target for rule in rules)

    def test_ground_truth_rules_have_expected_shape(self):
        config = SyntheticConfig(num_rows=5, seed=2)
        _, rules = generate_table_pair(config)
        assert len(rules) == config.num_transformations
        for rule in rules:
            assert rule.num_placeholders == config.placeholders_per_transformation

    def test_dataset_of_multiple_tables(self):
        dataset = generate_synthetic_dataset(10, num_tables=4, seed=9)
        assert len(dataset) == 4
        assert dataset.name == "Synth-10"
        long_dataset = generate_synthetic_dataset(10, long_rows=True, num_tables=1)
        assert long_dataset.name == "Synth-10L"

    def test_length_sweep_pair_has_fixed_length(self):
        pair, _ = generate_length_sweep_pair(num_rows=10, row_length=40, seed=1)
        assert all(len(v) == 40 for v in pair.source["value"])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_rows=0)
        with pytest.raises(ValueError):
            SyntheticConfig(min_length=1)
        with pytest.raises(ValueError):
            SyntheticConfig(min_length=30, max_length=20)


class TestWebTablesGenerator:
    def test_seventeen_topics(self):
        assert len(TOPICS) == 17

    def test_default_dataset_shape(self):
        dataset = generate_web_tables_dataset(num_pairs=5, num_rows=20, seed=1)
        assert len(dataset) == 5
        for pair in dataset:
            assert pair.num_source_rows == 20
            # Unmatched extra rows only on the target side.
            assert pair.num_target_rows >= 20
            assert len(pair.golden_pairs) == 20

    def test_golden_pairs_are_joinable_by_some_string_relationship(self):
        pair = generate_pair(TOPICS[0], num_rows=15, noise_rate=0.0, seed=2)
        for source_text, target_text in pair.golden_string_pairs():
            # Some non-trivial block of text is copied from source to target.
            assert _shares_a_block(source_text, target_text, 3), (
                source_text,
                target_text,
            )

    def test_noise_rate_zero_removes_annotations(self):
        clean = generate_pair(TOPICS[0], num_rows=30, noise_rate=0.0, seed=3)
        assert not any("(" in v and ")" in v and "retired" in v for v in clean.target["join"])

    def test_reproducibility(self):
        a = generate_web_tables_dataset(num_pairs=3, num_rows=10, seed=7)
        b = generate_web_tables_dataset(num_pairs=3, num_rows=10, seed=7)
        for pair_a, pair_b in zip(a, b):
            assert pair_a.source == pair_b.source
            assert pair_a.target == pair_b.target

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_web_tables_dataset(num_pairs=0)
        with pytest.raises(ValueError):
            generate_pair(TOPICS[0], noise_rate=2.0)


class TestSpreadsheetGenerator:
    def test_families_cover_canonical_flashfill_tasks(self):
        names = {family.name for family in FAMILIES}
        assert {"first-name", "initials", "email-domain", "file-extension"} <= names

    def test_dataset_shape(self):
        dataset = generate_spreadsheet_dataset(num_pairs=10, num_rows=12, seed=0)
        assert len(dataset) == 10
        for pair in dataset:
            assert pair.num_source_rows == 12
            assert len(pair.golden_pairs) == 12

    def test_single_transformation_per_family_is_learnable(self):
        """Each family is syntactic: discovery covers it with few rules."""
        from repro.core.discovery import TransformationDiscovery

        engine = TransformationDiscovery()
        for family in FAMILIES[:6]:
            pair = generate_task_pair(family, num_rows=10, seed=4)
            result = engine.discover_from_strings(pair.golden_string_pairs())
            assert result.cover_coverage == pytest.approx(1.0), family.name

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_spreadsheet_dataset(num_pairs=0)


class TestOpenDataGenerator:
    def test_shape_and_golden_pairs(self):
        pair = generate_open_data(
            num_source_rows=50, num_target_rows=120, match_rate=0.8, seed=0
        )
        assert pair.num_source_rows == 50
        assert pair.num_target_rows == 120
        assert 0 < len(pair.golden_pairs) <= 50

    def test_match_rate_zero_gives_no_golden_pairs(self):
        pair = generate_open_data(
            num_source_rows=30, num_target_rows=60, match_rate=0.0, seed=0
        )
        assert pair.golden_pairs == []

    def test_addresses_share_low_information_ngrams(self):
        """Different target rows share long n-grams (the precision killer)."""
        pair = generate_open_data(num_source_rows=30, num_target_rows=80, seed=1)
        values = list(pair.target["address"])
        shared = [v for v in values if " Street NW" in v or " Avenue NW" in v]
        assert len(shared) > 2

    def test_golden_pairs_are_transformable(self):
        """A transformation learned on golden pairs maps listings to assessments."""
        from repro.core.discovery import TransformationDiscovery

        pair = generate_open_data(
            num_source_rows=60, num_target_rows=100, match_rate=1.0, seed=2
        )
        engine = TransformationDiscovery()
        result = engine.discover(
            pairs_from_strings(pair.golden_string_pairs()[:40])
        )
        assert result.cover_coverage > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_open_data(num_source_rows=0)
        with pytest.raises(ValueError):
            generate_open_data(match_rate=1.5)


class TestRegistry:
    def test_available_datasets(self):
        names = available_datasets()
        assert {"web", "spreadsheet", "open", "synth-50", "synth-500L"} <= set(names)

    def test_load_scaled_down_datasets(self):
        web = load_dataset("web", scale=0.1, seed=0)
        assert len(web) >= 1
        synth = load_dataset("synth-50", scale=0.2, seed=0)
        assert len(synth) >= 1

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_dataset("web", scale=0.0)

    @pytest.mark.parametrize("name", available_datasets())
    def test_every_dataset_builds_consistent_pairs(self, name):
        dataset = load_dataset(name, scale=0.05, seed=1)
        assert len(dataset) >= 1
        for pair in dataset:
            assert pair.source_column in pair.source
            assert pair.target_column in pair.target
            assert pair.golden_pairs
            assert len(set(pair.golden_pairs)) == len(pair.golden_pairs)
            for source_row, target_row in pair.golden_pairs:
                assert 0 <= source_row < pair.num_source_rows
                assert 0 <= target_row < pair.num_target_rows
        again = load_dataset(name, scale=0.05, seed=1)
        assert [(p.name, p.source, p.target) for p in again] == [
            (p.name, p.source, p.target) for p in dataset
        ]
