"""Unit tests for case-insensitive discovery and joining."""

from __future__ import annotations

from repro.core.config import DiscoveryConfig
from repro.core.discovery import TransformationDiscovery
from repro.core.transformation import Transformation
from repro.core.units import Split
from repro.join.joiner import TransformationJoiner
from repro.join.pipeline import JoinPipeline
from repro.table.table import Table


class TestCaseInsensitiveDiscovery:
    def test_mixed_case_email_mapping_is_learned(self):
        pairs = [
            ("Bowling, Michael", "michael.bowling@ualberta.ca"),
            ("Rafiei, Davood", "davood.rafiei@ualberta.ca"),
            ("Gosgnach, Simon", "simon.gosgnach@ualberta.ca"),
        ]
        case_sensitive = TransformationDiscovery().discover_from_strings(pairs)
        case_insensitive = TransformationDiscovery(
            DiscoveryConfig(case_insensitive=True)
        ).discover_from_strings(pairs)
        assert case_insensitive.top_coverage == 1.0
        assert case_insensitive.top_coverage > case_sensitive.top_coverage

    def test_joiner_case_insensitive_mode(self):
        rule = Transformation([Split(",", 1)])
        joiner = TransformationJoiner([rule], case_insensitive=True)
        result = joiner.join_values(["BOWLING, Michael"], ["bowling"])
        assert result.as_set() == {(0, 0)}

    def test_pipeline_wires_case_insensitivity_through(self):
        source = Table(
            {"Name": ["Bowling, Michael", "Rafiei, Davood", "Gosgnach, Simon"]}
        )
        target = Table(
            {
                "Email": [
                    "michael.bowling@ualberta.ca",
                    "davood.rafiei@ualberta.ca",
                    "simon.gosgnach@ualberta.ca",
                ]
            }
        )
        pipeline = JoinPipeline(
            discovery_config=DiscoveryConfig(case_insensitive=True),
            min_support=0.0,
        )
        outcome = pipeline.run(
            source, target, source_column="Name", target_column="Email"
        )
        assert {(i, i) for i in range(3)} <= outcome.joined_pairs
