"""Tests for resource-bounded discovery (``DiscoveryConfig.time_budget_s``).

The budget contract: discovery under a wall-clock budget returns a *valid*
partial result (the best cover of the rows processed in time, never a
corrupt or truncated structure), records the cut in ``DiscoveryStats``
(``budget_exhausted`` / ``budget_stage`` / ``rows_fully_processed``), and
carries that provenance into the serialized model.  Old models without the
new config fields keep loading.
"""

from __future__ import annotations

import json
from time import monotonic

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.coverage import CoverageComputer, _build_unit_trie
from repro.core.discovery import TransformationDiscovery
from repro.core.pairs import pairs_from_strings
from repro.core.stats import DiscoveryStats
from repro.core.transformation import Transformation
from repro.core.units import Split
from repro.model import TransformationModel


class TestBudgetedDiscovery:
    def test_tiny_budget_degrades_to_valid_partial_result(
        self, name_initial_pairs
    ):
        engine = TransformationDiscovery(DiscoveryConfig(time_budget_s=1e-9))
        result = engine.discover_from_strings(name_initial_pairs)
        stats = result.stats
        assert stats.budget_exhausted
        assert stats.budget_stage == "skeleton_generation"
        # The first pair always runs (an exhausted budget still yields
        # progress), the rest were cut.
        assert 1 <= stats.rows_fully_processed < len(name_initial_pairs)
        # The partial result is structurally valid: transformations were
        # generated from the processed prefix and coverage is consistent.
        assert result.transformations
        assert all(c.coverage >= 1 for c in result.cover)
        assert 0.0 < result.top_coverage <= 1.0

    def test_generous_budget_is_identical_to_unbudgeted(
        self, name_initial_pairs
    ):
        unbudgeted = TransformationDiscovery(
            DiscoveryConfig()
        ).discover_from_strings(name_initial_pairs)
        budgeted = TransformationDiscovery(
            DiscoveryConfig(time_budget_s=3600.0)
        ).discover_from_strings(name_initial_pairs)
        assert not budgeted.stats.budget_exhausted
        assert [
            (c.transformation, c.covered_rows) for c in budgeted.cover
        ] == [(c.transformation, c.covered_rows) for c in unbudgeted.cover]
        assert budgeted.top_coverage == unbudgeted.top_coverage

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            DiscoveryConfig(time_budget_s=-1.0)
        with pytest.raises(ValueError):
            DiscoveryConfig(task_timeout_s=-0.5)
        with pytest.raises(ValueError):
            DiscoveryConfig(shard_retries=-1)


class TestBudgetedCoverageWalk:
    def test_expired_deadline_processes_exactly_the_first_block(self):
        # 1500 rows span two 1024-row walk blocks; an already expired
        # deadline must stop after block one — but never before it, so even
        # a hopeless budget yields progress.
        pairs = pairs_from_strings(
            [(f"a{i},b{i}", f"b{i}") for i in range(1500)]
        )
        transformation = Transformation([Split(",", 2)])
        computer = CoverageComputer(pairs)
        masks = computer.coverage_of_trie(
            _build_unit_trie([transformation]), deadline=monotonic() - 1.0
        )
        assert computer.budget_exhausted
        assert computer.rows_processed == 1024
        # The processed prefix is byte-identical to an unbudgeted run's
        # prefix: exactly the first 1024 rows are covered.
        assert masks == [(1 << 1024) - 1]

    def test_unexpired_deadline_is_a_no_op(self):
        pairs = pairs_from_strings([(f"a{i},b{i}", f"b{i}") for i in range(50)])
        transformation = Transformation([Split(",", 2)])
        computer = CoverageComputer(pairs)
        masks = computer.coverage_of_trie(
            _build_unit_trie([transformation]), deadline=monotonic() + 3600.0
        )
        assert not computer.budget_exhausted
        assert computer.rows_processed == len(pairs)
        assert masks == [(1 << 50) - 1]


class TestBudgetStats:
    def test_as_dict_carries_budget_fields_only_when_exhausted(self):
        clean = DiscoveryStats()
        assert clean.as_dict()["budget_exhausted"] is False
        assert "budget_stage" not in clean.as_dict()
        cut = DiscoveryStats(
            budget_exhausted=True,
            budget_stage="skeleton_generation",
            rows_fully_processed=7,
        )
        payload = cut.as_dict()
        assert payload["budget_exhausted"] is True
        assert payload["budget_stage"] == "skeleton_generation"
        assert payload["rows_fully_processed"] == 7


class TestModelProvenance:
    def test_budget_exhaustion_survives_save_and_load(
        self, name_initial_pairs, tmp_path
    ):
        engine = TransformationDiscovery(DiscoveryConfig(time_budget_s=1e-9))
        result = engine.discover_from_strings(name_initial_pairs)
        model = TransformationModel.from_discovery(
            result, config=engine.config, min_support=0.05
        )
        assert model.stats["budget_exhausted"] is True
        assert model.stats["budget_stage"] == "skeleton_generation"
        path = model.save(tmp_path / "budgeted.json")
        loaded = TransformationModel.load(path)
        assert loaded.stats["budget_exhausted"] is True
        assert loaded.stats["rows_fully_processed"] == result.stats.rows_fully_processed

    def test_pre_budget_models_still_load(self, name_initial_pairs, tmp_path):
        # A model written before the robustness fields existed has neither
        # the new config keys nor the budget stats — schema version 1 must
        # keep loading it, with the new fields at their defaults.
        engine = TransformationDiscovery()
        result = engine.discover_from_strings(name_initial_pairs)
        model = TransformationModel.from_discovery(
            result, config=engine.config, min_support=0.05
        )
        payload = model.to_dict()
        for key in (
            "time_budget_s",
            "task_timeout_s",
            "shard_retries",
            "serial_fallback",
        ):
            del payload["discovery_config"][key]
        payload["stats"].pop("budget_exhausted", None)
        loaded = TransformationModel.from_dict(
            json.loads(json.dumps(payload))
        )
        config = loaded.discovery_config
        assert config.time_budget_s == 0.0
        assert config.task_timeout_s == 0.0
        assert config.shard_retries == 2
        assert config.serial_fallback is True
        assert loaded.num_transformations == model.num_transformations
