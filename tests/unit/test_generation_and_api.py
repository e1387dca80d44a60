"""Unit tests for transformation generation and the top-level package API."""

from __future__ import annotations

import pytest

import repro
from repro.core.config import DiscoveryConfig
from repro.core.generation import (
    MAX_TRANSFORMATIONS_PER_SKELETON,
    TransformationGenerator,
)
from repro.core.pairs import RowPair, pairs_from_strings
from repro.core.skeletons import SkeletonBuilder


class TestTransformationGenerator:
    def test_every_generated_transformation_reproduces_the_target(self):
        config = DiscoveryConfig()
        builder = SkeletonBuilder(config)
        generator = TransformationGenerator(config)
        source, target = "Rafiei, Davood", "D Rafiei"
        skeletons = builder.build(source, target)
        transformations = list(generator.from_row(source, skeletons))
        assert transformations
        for transformation in transformations:
            assert transformation.apply(source) == target

    def test_generation_is_lazy_and_capped(self):
        config = DiscoveryConfig()
        builder = SkeletonBuilder(config)
        generator = TransformationGenerator(config)
        source = "abc def ghi jkl"
        target = "abc def ghi"
        skeletons = builder.build(source, target)
        iterator = generator.from_row(source, skeletons)
        first = next(iterator)
        assert first.apply(source) == target
        remaining = sum(1 for _ in iterator)
        assert remaining + 1 <= MAX_TRANSFORMATIONS_PER_SKELETON * len(skeletons)

    def test_placeholder_without_candidates_falls_back_to_literal(self):
        """A skeleton placeholder with no unit candidates still yields programs."""
        config = DiscoveryConfig(enabled_units=("Literal",))
        builder = SkeletonBuilder(config)
        generator = TransformationGenerator(config)
        source, target = "abcdef", "abc-def"
        skeletons = builder.build(source, target)
        transformations = list(generator.from_row(source, skeletons))
        assert transformations
        for transformation in transformations:
            assert transformation.apply(source) == target


class TestRowPairHelpers:
    def test_pairs_from_strings_sets_row_indices(self):
        pairs = pairs_from_strings([("a", "b"), ("c", "d")])
        assert [(p.source_row, p.target_row) for p in pairs] == [(0, 0), (1, 1)]
        assert [(p.source, p.target) for p in pairs] == [("a", "b"), ("c", "d")]

    def test_row_pair_rows_default_to_unknown(self):
        pair = RowPair("Rafiei, Davood", "D Rafiei")
        assert (pair.source_row, pair.target_row) == (-1, -1)
        assert pair == RowPair("Rafiei, Davood", "D Rafiei", -1, -1)


class TestPublicAPI:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_exports_resolve(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_readme_quickstart_snippet_behaviour(self):
        engine = repro.TransformationDiscovery()
        result = engine.discover_from_strings(
            [
                ("Rafiei, Davood", "D Rafiei"),
                ("Bowling, Michael", "M Bowling"),
                ("Gosgnach, Simon", "S Gosgnach"),
            ]
        )
        assert result.best.transformation.apply("Nascimento, Mario") == "M Nascimento"


class TestErrorMessages:
    def test_unknown_dataset_error_lists_options(self):
        from repro.datasets.registry import load_dataset

        with pytest.raises(KeyError, match="available"):
            load_dataset("bogus")

    def test_missing_column_error_lists_columns(self):
        table = repro.Table({"a": ["1"]})
        with pytest.raises(KeyError, match="available"):
            table.column("b")
