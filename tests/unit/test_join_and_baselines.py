"""Unit tests for the joiner, the pipeline, and the baseline methods."""

from __future__ import annotations

import pytest
from oracles.discovery import NaiveConfig, NaiveDiscovery
from oracles.join import join_values_reference

from repro.baselines.autojoin import AutoJoin, AutoJoinConfig
from repro.baselines.fuzzyjoin import AutoFuzzyJoin
from repro.core.coverage import CoverageResult
from repro.core.transformation import Transformation
from repro.core.units import Literal, Split, SplitSubstr, Substr
from repro.join.joiner import TransformationJoiner
from repro.join.pipeline import JoinPipeline


@pytest.fixture
def paper_transformation():
    return Transformation([SplitSubstr(" ", 2, 0, 1), Literal(" "), Split(",", 1)])


class TestTransformationJoiner:
    def test_joins_on_transformed_values(self, paper_transformation):
        joiner = TransformationJoiner([paper_transformation])
        result = joiner.join_values(
            ["Rafiei, Davood", "Bowling, Michael"],
            ["M Bowling", "D Rafiei", "Z Nobody"],
        )
        assert result.as_set() == {(0, 1), (1, 0)}
        assert result.matched_by[(0, 1)] == paper_transformation

    def test_join_tables(self, staff_tables, paper_transformation):
        source, target = staff_tables
        joiner = TransformationJoiner([paper_transformation])
        result = joiner.join(
            source, target, source_column="Name", target_column="Name"
        )
        assert result.as_set() == {(i, i) for i in range(source.num_rows)}

    def test_materialize_produces_joined_table(self, staff_tables, paper_transformation):
        source, target = staff_tables
        joiner = TransformationJoiner([paper_transformation])
        joined = joiner.materialize_from(
            joiner.join(source, target, source_column="Name", target_column="Name"),
            source,
            target,
        )
        assert joined.num_rows == source.num_rows
        assert "Name_source" in joined and "Phone_target" in joined

    def test_lone_surrogate_in_source_joins_like_the_reference(
        self, paper_transformation
    ):
        # "\ud800" is what JSON "\ud800" decodes to, and it cannot be
        # encoded as UTF-8: a 64-row batch must join like a 2-row one.
        sources = ["x\ud800, y"] + [f"Name{i}, First{i}" for i in range(63)]
        targets = ["y x\ud800", "F Name1", "F Name63", "\ud800"]
        joiner = TransformationJoiner(
            [paper_transformation, Transformation([Split(",", 1)])]
        )
        result = joiner.join_values(sources, targets)
        reference = join_values_reference(joiner, sources, targets)
        assert (0, 0) in result.pairs
        assert result.pairs == reference.pairs
        assert result.matched_by == reference.matched_by

    def test_first_matching_transformation_wins(self):
        first = Transformation([Substr(0, 1)])
        second = Transformation([Split("-", 1)])
        joiner = TransformationJoiner([first, second])
        result = joiner.join_values(["a-b"], ["a"])
        assert result.matched_by[(0, 0)] == first

    def test_support_filter_removes_low_support_transformations(self):
        good = Transformation([Split("-", 1)])
        niche = Transformation([Literal("only one")])
        coverage = [
            CoverageResult(good, frozenset({0, 1, 2, 3})),
            CoverageResult(niche, frozenset({0})),
        ]
        joiner = TransformationJoiner(
            [good, niche],
            min_support=0.5,
            coverage_results=coverage,
            num_candidate_pairs=4,
        )
        assert joiner.transformations == [good]

    def test_support_filter_never_empties_the_set(self):
        rare = Transformation([Split("-", 1)])
        coverage = [CoverageResult(rare, frozenset({0}))]
        joiner = TransformationJoiner(
            [rare], min_support=0.9, coverage_results=coverage, num_candidate_pairs=100
        )
        assert joiner.transformations == [rare]

    def test_constant_transformations_are_never_applied(self):
        constant = Transformation([Literal("P Richardson")])
        real = Transformation([Split(",", 1)])
        joiner = TransformationJoiner([constant, real])
        assert joiner.transformations == [real]
        result = joiner.join_values(["Kowalski, Chen"], ["P Richardson"])
        assert result.pairs == []

    def test_invalid_support_configuration(self):
        with pytest.raises(ValueError):
            TransformationJoiner([], min_support=1.5)
        with pytest.raises(ValueError):
            TransformationJoiner([], min_support=0.5)

    def test_support_filter_requires_real_pair_count(self):
        # Guessing the pair count from the covered rows (max row + 1)
        # undercounts when trailing rows are uncovered and silently loosens
        # the threshold — the joiner must refuse instead.
        rare = Transformation([Split("-", 1)])
        coverage = [CoverageResult(rare, frozenset({0}))]
        with pytest.raises(ValueError, match="num_candidate_pairs"):
            TransformationJoiner(
                [rare], min_support=0.5, coverage_results=coverage
            )


class TestJoinPipeline:
    def test_end_to_end_on_staff_tables(self, staff_tables):
        source, target = staff_tables
        pipeline = JoinPipeline(min_support=0.0)
        outcome = pipeline.run(
            source, target, source_column="Name", target_column="Name"
        )
        expected = {(i, i) for i in range(source.num_rows)}
        assert expected <= outcome.joined_pairs
        assert outcome.discovery.cover_coverage > 0.0
        assert outcome.candidate_pairs >= source.num_rows

    def test_materialization_option(self, staff_tables):
        source, target = staff_tables
        pipeline = JoinPipeline(min_support=0.0, materialize=True)
        outcome = pipeline.run(
            source, target, source_column="Name", target_column="Name"
        )
        assert outcome.joined_table is not None
        assert outcome.joined_table.num_rows == len(outcome.join.pairs)

    def test_materialization_joins_exactly_once(self, staff_tables, monkeypatch):
        # The materialized table is built from the already-computed pairs;
        # the apply stage must not run a second time for it.
        from repro.join import joiner as joiner_module

        calls = []
        original = joiner_module.TransformationJoiner.join_values

        def counting_join_values(self, source_values, target_values):
            calls.append(1)
            return original(self, source_values, target_values)

        monkeypatch.setattr(
            joiner_module.TransformationJoiner, "join_values", counting_join_values
        )
        source, target = staff_tables
        outcome = JoinPipeline(min_support=0.0, materialize=True).run(
            source, target, source_column="Name", target_column="Name"
        )
        assert outcome.joined_table is not None
        assert len(calls) == 1


class TestNaiveBaseline:
    def test_finds_simple_transformation_on_tiny_input(self):
        naive = NaiveDiscovery(NaiveConfig(max_units=1, max_length=6))
        result = naive.discover_from_strings([("ab-cd", "ab"), ("xy-zw", "xy")])
        assert result.best is not None
        assert result.best.coverage == 2
        best = result.best.transformation
        assert best.apply("qq-rr") == "qq"

    def test_enumeration_counts_reported(self):
        naive = NaiveDiscovery(NaiveConfig(max_units=1, max_length=4))
        result = naive.discover_from_strings([("abcd", "ab")])
        assert result.enumerated > 0
        assert not result.timed_out

    def test_transformation_cap_triggers_timeout_flag(self):
        naive = NaiveDiscovery(
            NaiveConfig(max_units=2, max_length=6, max_transformations=50)
        )
        result = naive.discover_from_strings([("abc-def", "abc")])
        assert result.timed_out
        assert result.enumerated == 50

    def test_empty_input(self):
        result = NaiveDiscovery().discover([])
        assert result.best is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NaiveConfig(max_units=0)
        with pytest.raises(ValueError):
            NaiveConfig(max_length=0)


class TestAutoJoinBaseline:
    def test_finds_single_rule_transformation(self):
        pairs = [
            ("Rafiei, Davood", "D Rafiei"),
            ("Bowling, Michael", "M Bowling"),
            ("Gosgnach, Simon", "S Gosgnach"),
            ("Nascimento, Mario", "M Nascimento"),
        ]
        autojoin = AutoJoin(AutoJoinConfig(num_subsets=4, subset_size=2, seed=1))
        result = autojoin.discover_from_strings(pairs)
        assert result.num_transformations >= 1
        assert result.top_coverage == 1.0

    def test_struggles_with_multiple_rules(self):
        """With subsets drawn across two incompatible rules, some subsets fail.

        Three-letter names keep AutoJoin's exhaustive search short.
        """
        pairs = [
            ("Raf, Dav", "D Raf"),
            ("Bow, Mic", "M Bow"),
            ("alp-bet", "bet/alp"),
            ("gam-del", "del/gam"),
        ]
        autojoin = AutoJoin(AutoJoinConfig(num_subsets=6, subset_size=2, seed=3))
        result = autojoin.discover_from_strings(pairs)
        assert result.subsets_tried == 6
        assert result.subsets_succeeded <= result.subsets_tried

    def test_empty_input(self):
        result = AutoJoin().discover([])
        assert result.transformations == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoJoinConfig(num_subsets=0)
        with pytest.raises(ValueError):
            AutoJoinConfig(subset_size=0)
        with pytest.raises(ValueError):
            AutoJoinConfig(max_depth=0)

    def test_transformations_actually_cover_reported_rows(self):
        pairs = [
            ("(780) 432-3636", "780-432-3636"),
            ("(780) 433-6545", "780-433-6545"),
            ("(780) 428-2108", "780-428-2108"),
        ]
        autojoin = AutoJoin(AutoJoinConfig(num_subsets=3, subset_size=2, seed=0))
        result = autojoin.discover_from_strings(pairs)
        for coverage in result.coverage_results:
            for row in coverage.covered_rows:
                source, target = pairs[row]
                assert coverage.transformation.apply(source) == target


class TestAutoFuzzyJoinBaseline:
    def test_joins_similar_strings(self):
        fuzzy = AutoFuzzyJoin()
        result = fuzzy.join_values(
            ["Rafiei, Davood", "Bowling, Michael"],
            ["Davood Rafiei", "Michael Bowling", "Unrelated Person"],
        )
        assert (0, 0) in result.as_set()
        assert (1, 1) in result.as_set()

    def test_returns_no_pairs_for_dissimilar_columns(self):
        fuzzy = AutoFuzzyJoin()
        result = fuzzy.join_values(["aaaa", "bbbb"], ["cccc", "dddd"])
        assert result.pairs == []

    def test_join_tables(self, staff_tables):
        source, target = staff_tables
        result = AutoFuzzyJoin().join(
            source, target, source_column="Name", target_column="Name"
        )
        assert len(result.pairs) > 0

    def test_reports_chosen_configuration(self):
        result = AutoFuzzyJoin().join_values(
            ["alpha beta", "gamma delta"], ["alpha beta", "gamma delta"]
        )
        assert result.similarity in ("token_jaccard", "ngram_jaccard", "containment")
        assert 0.0 <= result.threshold <= 1.0
