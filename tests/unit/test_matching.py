"""Unit tests for the row-matching substrate (repro.matching)."""

from __future__ import annotations

import pytest
from oracles.matching import (
    character_ngrams,
    inverse_row_frequency,
    representative_score,
    unique_ngrams,
)

from repro.core.pairs import RowPair
from repro.matching.index import InvertedIndex
from repro.matching.ngrams import ngram_set
from repro.matching.row_matcher import GoldenRowMatcher, MatchingConfig, NGramRowMatcher


class TestNgrams:
    def test_character_ngrams(self):
        assert character_ngrams("abcd", 2) == ["ab", "bc", "cd"]

    def test_lowercasing(self):
        assert character_ngrams("AbC", 2) == ["ab", "bc"]
        assert character_ngrams("AbC", 2, lowercase=False) == ["Ab", "bC"]

    def test_short_text(self):
        assert character_ngrams("ab", 4) == []

    def test_unique_ngrams(self):
        assert unique_ngrams("aaaa", 2) == {"aa"}

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            character_ngrams("abc", 0)
        with pytest.raises(ValueError, match="must be >= min size"):
            ngram_set("abc", 3, 2)
        with pytest.raises(ValueError, match="must be positive"):
            ngram_set("abc", 0, 2)

    def test_ngram_set_holds_every_size_in_one_set(self):
        assert ngram_set("abcd", 2, 3) == {"ab", "bc", "cd", "abc", "bcd"}
        assert ngram_set("abab", 2, 2) == {"ab", "ba"}

    def test_ngram_set_stops_at_the_text_length(self):
        assert ngram_set("abc", 2, 6) == {"ab", "bc", "abc"}
        assert ngram_set("ab", 3, 4) == set()

    def test_ngram_set_lowercase_switch(self):
        assert ngram_set("AbA", 2, 2) == {"ab", "ba"}
        assert ngram_set("AbA", 2, 2, lowercase=False) == {"Ab", "bA"}


class TestInvertedIndex:
    def test_build_and_lookup(self):
        index = InvertedIndex.build(["hello world", "hello there"], min_size=4, max_size=6)
        assert index.num_rows == 2
        assert list(index.rows_containing("hello")) == [0, 1]
        assert list(index.rows_containing("world")) == [0]
        assert list(index.rows_containing("zzzz")) == []

    def test_postings_are_packed_and_not_copied(self):
        index = InvertedIndex.build(["abcd", "xabc", "abcx"], min_size=3, max_size=3)
        postings = index.rows_containing("abc")
        # Sorted ascending, and the same object on every call (no copies).
        assert list(postings) == sorted(postings)
        assert index.rows_containing("abc") is postings

    def test_row_frequency(self):
        index = InvertedIndex.build(["abcd", "abce", "abxx"], min_size=2, max_size=3)
        assert index.row_frequency("ab") == 3
        assert index.row_frequency("abc") == 2
        assert index.row_frequency("zz") == 0

    def test_case_insensitive_by_default(self):
        index = InvertedIndex.build(["Hello"], min_size=4, max_size=5)
        assert list(index.rows_containing("HELLO")) == [0]

    def test_contains(self):
        index = InvertedIndex.build(["abcd"], min_size=2, max_size=2)
        assert "ab" in index
        assert "zz" not in index
        assert 42 not in index

    def test_num_ngrams_counts_distinct(self):
        index = InvertedIndex.build(["aaaa"], min_size=2, max_size=2)
        assert index.num_ngrams == 1

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            InvertedIndex(min_size=0, max_size=3)
        with pytest.raises(ValueError):
            InvertedIndex(min_size=4, max_size=2)
        with pytest.raises(ValueError):
            InvertedIndex(min_size=2, max_size=3, stop_gram_cap=-1)

    def test_out_of_order_add_rejected(self):
        index = InvertedIndex(min_size=2, max_size=2)
        index.add(0, "ab")
        index.add(1, "cd")
        with pytest.raises(ValueError):
            index.add(0, "ef")
        with pytest.raises(ValueError):
            # Repeating a row id would silently double-count postings.
            index.add(1, "ab")

    def test_stop_gram_pruning_drops_postings_keeps_frequencies(self):
        rows = ["abcd", "abce", "abcf", "abzz"]
        index = InvertedIndex.build(rows, min_size=2, max_size=3, stop_gram_cap=2)
        # "ab" occurs in 4 rows (> cap): postings dropped, frequency kept.
        assert list(index.rows_containing("ab")) == []
        assert index.row_frequency("ab") == 4
        assert "ab" in index
        assert index.num_pruned_ngrams > 0
        # "abc" occurs in 3 rows (> cap) and is pruned too; "bz" survives.
        assert list(index.rows_containing("bz")) == [3]

    def test_add_after_pruning_keeps_frequencies_exact(self):
        index = InvertedIndex.build(
            ["abc", "abd", "abe"], min_size=2, max_size=2, stop_gram_cap=2
        )
        assert list(index.rows_containing("ab")) == []
        assert index.row_frequency("ab") == 3
        index.add(3, "abz")
        # A pruned stop-gram stays pruned and its frequency keeps counting.
        assert list(index.rows_containing("ab")) == []
        assert index.row_frequency("ab") == 4
        assert list(index.rows_containing("bz")) == [3]

    def test_representatives_match_scoring_definition(self):
        source = ["abcd", "abce"]
        target = ["abcd", "qqqq"]
        index = InvertedIndex.build(target, min_size=3, max_size=4)
        reps = index.representatives(source)
        # Row 0: "abc"/"bcd" of size 3 ("abc" scores 1/2*1, "bcd" 1*1 — "bcd"
        # wins), "abcd" of size 4 (scores 1*1).
        assert reps[0] == ["bcd", "abcd"]
        # Row 1: only "abc" co-occurs at size 3, nothing at size 4.
        assert reps[1] == ["abc"]
        # The fused pass picks, per row and size, the n-gram that the paper's
        # Rscore definition ranks highest (the smallest one on ties).
        source_index = InvertedIndex.build(source, min_size=3, max_size=4)
        for row, text in enumerate(source):
            expected = []
            for size in (3, 4):
                scores = {
                    gram: representative_score(gram, source_index, index)
                    for gram in unique_ngrams(text, size)
                }
                best = max(sorted(scores), key=scores.__getitem__)
                if scores[best] > 0:
                    expected.append(best)
            assert reps[row] == expected

    def test_representatives_break_ties_lexicographically(self):
        # Both "abcd" and "bcde" occur once in source and once in target:
        # equal Rscore, so the lexicographically smallest wins.
        index = InvertedIndex.build(["abcdexx", "yyyyyyy"], min_size=4, max_size=4)
        reps = index.representatives(["abcde"])
        assert reps[0] == ["abcd"]


class TestValueIndex:
    def test_build_and_probe(self):
        from repro.matching.index import ValueIndex

        index = ValueIndex.build(["a", "b", "a", "c"])
        assert index.num_rows == 4
        assert index.num_values == 3
        assert list(index.rows_for("a")) == [0, 2]
        assert list(index.rows_for("missing")) == []
        assert "b" in index
        assert 7 not in index


class TestScoring:
    def test_irf_is_inverse_of_row_count(self):
        index = InvertedIndex.build(["abcd", "abce", "abcf", "xyzw"], min_size=3, max_size=4)
        assert inverse_row_frequency("abc", index) == pytest.approx(1 / 3)
        assert inverse_row_frequency("xyzw", index) == 1.0
        assert inverse_row_frequency("none", index) == 0.0

    def test_rscore_product(self):
        source = InvertedIndex.build(["abcd", "abce"], min_size=3, max_size=4)
        target = InvertedIndex.build(["abcd", "qqqq"], min_size=3, max_size=4)
        assert representative_score("abcd", source, target) == pytest.approx(1.0)
        assert representative_score("abc", source, target) == pytest.approx(0.5)
        assert representative_score("qqqq", source, target) == 0.0

    def test_rare_ngrams_score_higher(self):
        rows = ["university of alberta " + suffix for suffix in ["aa", "bb", "cc"]]
        source = InvertedIndex.build(rows, min_size=2, max_size=4)
        target = InvertedIndex.build(rows, min_size=2, max_size=4)
        common = representative_score("university"[:4], source, target)
        rare = representative_score("aa", source, target)
        assert rare > common


class TestMatchingConfig:
    def test_defaults_follow_paper(self):
        config = MatchingConfig()
        assert config.min_ngram == 4
        assert config.max_ngram == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            MatchingConfig(min_ngram=0)
        with pytest.raises(ValueError):
            MatchingConfig(min_ngram=5, max_ngram=4)
        with pytest.raises(ValueError):
            MatchingConfig(max_candidates_per_row=-1)


class TestNGramRowMatcher:
    def test_matches_reformatted_names(self, staff_tables):
        source, target = staff_tables
        matcher = NGramRowMatcher()
        pairs = matcher.match(
            source, target, source_column="Name", target_column="Name"
        )
        found = {(p.source_row, p.target_row) for p in pairs}
        expected = {(i, i) for i in range(source.num_rows)}
        assert expected <= found

    def test_returns_row_pair_objects_with_text(self, staff_tables):
        source, target = staff_tables
        pairs = NGramRowMatcher().match(
            source, target, source_column="Name", target_column="Name"
        )
        for pair in pairs:
            assert isinstance(pair, RowPair)
            assert pair.source == source["Name"][pair.source_row]
            assert pair.target == target["Name"][pair.target_row]

    def test_no_duplicates(self, staff_tables):
        source, target = staff_tables
        pairs = NGramRowMatcher().match(
            source, target, source_column="Name", target_column="Name"
        )
        keys = [(p.source_row, p.target_row) for p in pairs]
        assert len(keys) == len(set(keys))

    def test_candidate_cap(self):
        source_values = ["common text alpha", "common text beta"]
        target_values = ["common text one", "common text two", "common text three"]
        capped = NGramRowMatcher(MatchingConfig(min_ngram=4, max_ngram=6, max_candidates_per_row=1))
        pairs = capped.match_values(source_values, target_values)
        per_source: dict[int, int] = {}
        for pair in pairs:
            per_source[pair.source_row] = per_source.get(pair.source_row, 0) + 1
        assert all(count <= 1 for count in per_source.values())

    def test_disjoint_columns_produce_no_pairs(self):
        pairs = NGramRowMatcher(MatchingConfig(min_ngram=4, max_ngram=8)).match_values(
            ["aaaaaa", "bbbbbb"], ["cccccc", "dddddd"]
        )
        assert pairs == []


class TestGoldenRowMatcher:
    def test_replays_ground_truth(self, staff_tables):
        source, target = staff_tables
        golden = [(i, i) for i in range(source.num_rows)]
        pairs = GoldenRowMatcher(golden).match(
            source, target, source_column="Name", target_column="Name"
        )
        assert [(p.source_row, p.target_row) for p in pairs] == golden
        assert pairs[0].source == "Rafiei, Davood"

    def test_out_of_range_pair_rejected(self, staff_tables):
        source, target = staff_tables
        with pytest.raises(IndexError):
            GoldenRowMatcher([(99, 0)]).match(
                source, target, source_column="Name", target_column="Name"
            )
