"""Unit tests for the set-similarity matching engine and its join family."""

from __future__ import annotations

from array import array

import pytest

from repro.baselines.setsimjoin import (
    cosine_join,
    jaccard_join,
    overlap_join,
    set_similarity_join_values,
)
from repro.matching.row_matcher import (
    MATCHER_ENGINES,
    MatchingConfig,
    NGramRowMatcher,
    create_row_matcher,
)
from repro.matching.setsim import (
    FILTER_EPS,
    SetSimRowMatcher,
    SetSimStats,
    build_token_order,
    filter_token_postings,
    intersect_count,
    ordered_token_ids,
    prefix_length,
    required_overlap,
    similarity_score,
    size_bounds,
)
from repro.matching.tokenize import (
    qgram_tokens,
    tokenizer_for,
    whitespace_tokens,
)
from repro.table.table import Table


class TestTokenizers:
    def test_whitespace_dedups_preserving_order(self):
        assert whitespace_tokens("b a b  c a") == ["b", "a", "c"]

    def test_whitespace_lowercases_by_default(self):
        assert whitespace_tokens("Apple apple") == ["apple"]
        assert whitespace_tokens("Apple apple", lowercase=False) == [
            "Apple",
            "apple",
        ]

    def test_whitespace_empty(self):
        assert whitespace_tokens("") == []
        assert whitespace_tokens("   ") == []

    def test_qgram_sliding_window(self):
        assert qgram_tokens("abcde", 4) == ["abcd", "bcde"]

    def test_qgram_short_strings_are_their_own_token(self):
        assert qgram_tokens("ab", 4) == ["ab"]
        assert qgram_tokens("abcd", 4) == ["abcd"]
        assert qgram_tokens("", 4) == []

    def test_qgram_dedups(self):
        assert qgram_tokens("aaaaa", 2) == ["aa"]

    def test_qgram_rejects_bad_size(self):
        with pytest.raises(ValueError):
            qgram_tokens("abc", 0)

    def test_tokenizer_for(self):
        assert tokenizer_for("whitespace")("a b") == ["a", "b"]
        assert tokenizer_for("qgram", qgram_size=2)("abc") == ["ab", "bc"]
        with pytest.raises(ValueError):
            tokenizer_for("nope")


class TestTokenOrder:
    def test_rare_tokens_rank_first(self):
        order = build_token_order([["a", "b"], ["b", "c"], ["b"]])
        # df: a=1, c=1, b=3; ties (a, c) break by the token string.
        assert order == {"a": 0, "c": 1, "b": 2}

    def test_ordered_token_ids_sorted(self):
        order = {"x": 2, "y": 0, "z": 1}
        ids = ordered_token_ids(["x", "y", "z"], order)
        assert isinstance(ids, array)
        assert list(ids) == [0, 1, 2]


class TestFilterMath:
    def test_prefix_length_jaccard(self):
        # |x|=4, t=0.5: keep >= 2 tokens, prefix = 4 - 2 + 1 = 3.
        assert prefix_length(4, "jaccard", 0.5) == 3
        assert prefix_length(4, "jaccard", 1.0) == 1
        assert prefix_length(0, "jaccard", 0.5) == 0

    def test_prefix_length_overlap_can_disqualify(self):
        # A 2-token row can never reach overlap 3.
        assert prefix_length(2, "overlap", 3) == 0
        assert prefix_length(3, "overlap", 3) == 1

    def test_size_bounds_jaccard(self):
        low, high = size_bounds(4, "jaccard", 0.5)
        assert (low, high) == (2, 8)

    def test_size_bounds_overlap_unbounded_above(self):
        low, high = size_bounds(4, "overlap", 2)
        assert low == 2
        assert high >= 10**9

    def test_required_overlap(self):
        assert required_overlap(4, 4, "jaccard", 0.5) == pytest.approx(8 / 3)
        assert required_overlap(4, 9, "cosine", 0.5) == pytest.approx(3.0)
        assert required_overlap(4, 9, "overlap", 2) == 2.0

    def test_similarity_score_exact_expressions(self):
        assert similarity_score(2, 3, 3, "jaccard") == 2 / 4
        assert similarity_score(2, 4, 4, "cosine") == 0.5
        assert similarity_score(2, 5, 9, "overlap") == 2.0
        assert similarity_score(0, 3, 3, "jaccard") == 0.0

    def test_filter_eps_is_conservative(self):
        # 3 * (1/3) is 1.0 exactly in binary floats here; the epsilon must
        # keep the size-1 neighbour admitted, not rounded out.
        low, _ = size_bounds(3, "jaccard", 1.0 / 3.0)
        assert low == 1
        assert FILTER_EPS < 1e-6


class TestPostingFilter:
    def test_filter_token_postings(self):
        rows = array("i", [0, 1, 2])
        positions = array("i", [0, 0, 1])
        sizes = array("i", [2, 4, 9])
        admitted = filter_token_postings(
            rows,
            positions,
            sizes,
            probe_size=3,
            probe_position=0,
            similarity="jaccard",
            threshold=0.5,
            size_low=2,
            size_high=6,
        )
        # Row 2 fails the size filter; rows 0 and 1 can still reach the
        # required overlap from position 0.
        assert admitted == [0, 1]

    def test_intersect_count(self):
        assert intersect_count(array("i", [1, 3, 5]), array("i", [2, 3, 5])) == 2
        assert intersect_count(array("i", []), array("i", [1])) == 0


class TestMatchingConfigValidation:
    def test_engine_validated(self):
        assert "setsim" in MATCHER_ENGINES
        with pytest.raises(ValueError):
            MatchingConfig(engine="bogus")

    def test_similarity_validated(self):
        with pytest.raises(ValueError):
            MatchingConfig(engine="setsim", setsim_similarity="dice")

    def test_jaccard_threshold_range(self):
        with pytest.raises(ValueError):
            MatchingConfig(engine="setsim", setsim_threshold=0.0)
        with pytest.raises(ValueError):
            MatchingConfig(engine="setsim", setsim_threshold=1.5)

    def test_overlap_threshold_is_a_count(self):
        with pytest.raises(ValueError):
            MatchingConfig(
                engine="setsim",
                setsim_similarity="overlap",
                setsim_threshold=0.5,
            )
        config = MatchingConfig(
            engine="setsim", setsim_similarity="overlap", setsim_threshold=3
        )
        assert config.setsim_threshold == 3

    def test_tokenizer_and_qgram_validated(self):
        with pytest.raises(ValueError):
            MatchingConfig(engine="setsim", setsim_tokenizer="words")
        with pytest.raises(ValueError):
            MatchingConfig(engine="setsim", setsim_qgram=0)


class TestCreateRowMatcher:
    def test_default_engine_is_ngram(self):
        assert isinstance(create_row_matcher(), NGramRowMatcher)

    def test_setsim_engine(self):
        matcher = create_row_matcher(MatchingConfig(engine="setsim"))
        assert isinstance(matcher, SetSimRowMatcher)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_MATCHER", "setsim")
        assert isinstance(create_row_matcher(), SetSimRowMatcher)
        monkeypatch.setenv("REPRO_MATCHER", "ngram")
        assert isinstance(create_row_matcher(), NGramRowMatcher)

    def test_explicit_engine_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MATCHER", "setsim")
        matcher = create_row_matcher(MatchingConfig(engine="ngram"))
        assert isinstance(matcher, NGramRowMatcher)


class TestSetSimRowMatcher:
    def matcher(self, **overrides):
        defaults = dict(engine="setsim", setsim_threshold=0.5, num_workers=1)
        defaults.update(overrides)
        return SetSimRowMatcher(MatchingConfig(**defaults))

    def test_matches_tables(self):
        source = Table({"Name": ["davood rafiei", "michael bowling", "x y z"]})
        target = Table({"Name": ["rafiei davood", "bowling m", "unrelated"]})
        pairs = self.matcher().match(
            source, target, source_column="Name", target_column="Name"
        )
        produced = {(p.source_row, p.target_row) for p in pairs}
        assert (0, 0) in produced  # same token set, reordered
        assert (2, 2) not in produced
        for pair in pairs:
            assert pair.source == source["Name"][pair.source_row]
            assert pair.target == target["Name"][pair.target_row]

    def test_stats_counts(self):
        pairs, stats = self.matcher().match_values_with_stats(
            ["a b", "c d"], ["a b", "e f"]
        )
        assert isinstance(stats, SetSimStats)
        assert stats.all_pairs == 4
        assert stats.matches == len(pairs) == 1
        assert stats.matches <= stats.candidates <= stats.all_pairs
        assert 0.0 < stats.pruning_ratio <= 1.0

    def test_empty_inputs(self):
        pairs, stats = self.matcher().match_values_with_stats([], [])
        assert pairs == []
        assert stats.all_pairs == 0
        assert stats.pruning_ratio == 0.0
        assert self.matcher().match_values(["a"], []) == []
        assert self.matcher().match_values([], ["a"]) == []

    def test_qgram_tokenizer_matches_separator_free_keys(self):
        matcher = self.matcher(
            setsim_tokenizer="qgram", setsim_qgram=3, setsim_threshold=0.5
        )
        pairs = matcher.match_values(["abcdef"], ["abcdef", "zzzzzz"])
        assert {(p.source_row, p.target_row) for p in pairs} == {(0, 0)}

    def test_default_config_engine_field(self):
        matcher = SetSimRowMatcher()
        assert matcher.config.engine == "setsim"


class TestSetSimJoinBaselines:
    SOURCE = Table({"Name": ["davood rafiei", "michael bowling", "solo"]})
    TARGET = Table({"Name": ["rafiei davood", "bowling michael holte", "other"]})

    def test_jaccard_join(self):
        result = jaccard_join(
            self.SOURCE,
            self.TARGET,
            source_column="Name",
            target_column="Name",
            threshold=0.5,
        )
        assert result.as_set() == {(0, 0), (1, 1)}
        assert result.similarity == "jaccard"
        by_pair = dict(zip(result.pairs, result.scores))
        assert by_pair[(0, 0)] == 1.0
        assert by_pair[(1, 1)] == pytest.approx(2 / 3)
        assert result.stats is not None and result.stats.all_pairs == 9

    def test_cosine_join(self):
        result = cosine_join(
            self.SOURCE,
            self.TARGET,
            source_column="Name",
            target_column="Name",
            threshold=0.8,
        )
        assert result.as_set() == {(0, 0), (1, 1)}
        by_pair = dict(zip(result.pairs, result.scores))
        assert by_pair[(1, 1)] == pytest.approx(2 / 6**0.5)

    def test_overlap_join_threshold_is_a_count(self):
        result = overlap_join(
            self.SOURCE,
            self.TARGET,
            source_column="Name",
            target_column="Name",
            threshold=2,
        )
        assert result.as_set() == {(0, 0), (1, 1)}
        assert all(score >= 2 for score in result.scores)

    def test_join_values_exactness_vs_brute_force(self):
        source = ["a b c", "a", "x y"]
        target = ["a b", "c b a", "y x z"]
        result = set_similarity_join_values(
            source, target, similarity="jaccard", threshold=1.0 / 3.0
        )
        expected = set()
        for i, left in enumerate(frozenset(v.split()) for v in source):
            for j, right in enumerate(frozenset(v.split()) for v in target):
                if left and right:
                    score = len(left & right) / len(left | right)
                    if score >= 1.0 / 3.0:
                        expected.add((i, j))
        assert result.as_set() == expected


class TestCliIntegration:
    def test_matcher_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "discover",
                "a.csv",
                "b.csv",
                "--source-column",
                "Name",
                "--target-column",
                "Name",
                "--matcher",
                "setsim",
                "--setsim-similarity",
                "cosine",
                "--setsim-threshold",
                "0.6",
                "--setsim-tokenizer",
                "qgram",
                "--setsim-qgram",
                "3",
            ]
        )
        assert args.matcher == "setsim"
        assert args.setsim_similarity == "cosine"
        assert args.setsim_threshold == 0.6
        assert args.setsim_qgram == 3

    def test_matcher_flag_builds_setsim(self):
        from repro.cli import _matcher, build_parser

        args = build_parser().parse_args(
            [
                "discover",
                "a.csv",
                "b.csv",
                "--source-column",
                "Name",
                "--target-column",
                "Name",
                "--matcher",
                "setsim",
            ]
        )
        matcher = _matcher(args)
        assert isinstance(matcher, SetSimRowMatcher)

    def test_env_var_selects_engine(self, monkeypatch):
        from repro.cli import _matcher, build_parser

        monkeypatch.setenv("REPRO_MATCHER", "setsim")
        args = build_parser().parse_args(
            [
                "discover",
                "a.csv",
                "b.csv",
                "--source-column",
                "Name",
                "--target-column",
                "Name",
            ]
        )
        assert isinstance(_matcher(args), SetSimRowMatcher)

    def test_rejects_unknown_matcher(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "discover",
                    "a.csv",
                    "b.csv",
                    "--source-column",
                    "Name",
                    "--target-column",
                    "Name",
                    "--matcher",
                    "levenshtein",
                ]
            )
