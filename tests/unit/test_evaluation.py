"""Unit tests for the evaluation metrics and report formatting."""

from __future__ import annotations

import pytest

from repro.core.pairs import RowPair
from repro.evaluation.join_metrics import evaluate_join
from repro.evaluation.matching_metrics import evaluate_matching, prf
from repro.evaluation.report import format_table


class TestPRF:
    def test_perfect_prediction(self):
        result = prf([(0, 0), (1, 1)], [(0, 0), (1, 1)])
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.f1 == 1.0

    def test_partial_prediction(self):
        result = prf([(0, 0), (1, 2)], [(0, 0), (1, 1)])
        assert result.precision == 0.5
        assert result.recall == 0.5
        assert result.f1 == pytest.approx(0.5)

    def test_no_predictions(self):
        result = prf([], [(0, 0)])
        assert result.precision == 0.0
        assert result.recall == 0.0
        assert result.f1 == 0.0

    def test_no_gold(self):
        result = prf([(0, 0)], [])
        assert result.recall == 0.0
        assert result.f1 == 0.0

    def test_duplicates_do_not_inflate_counts(self):
        result = prf([(0, 0), (0, 0)], [(0, 0)])
        assert result.num_predicted == 1
        assert result.precision == 1.0

    def test_counts_reported(self):
        result = prf([(0, 0), (5, 5)], [(0, 0), (1, 1), (2, 2)])
        assert result.num_predicted == 2
        assert result.num_gold == 3
        assert result.num_correct == 1

    def test_as_dict(self):
        flat = prf([(0, 0)], [(0, 0)]).as_dict()
        assert flat["precision"] == 1.0 and flat["num_gold"] == 1

    def test_f1_is_the_harmonic_mean(self):
        result = prf([(0, 0)], [(0, 0), (1, 1), (2, 2), (3, 3)])
        assert result.precision == 1.0
        assert result.recall == 0.25
        assert result.f1 == pytest.approx(0.4)


class TestEvaluateMatching:
    def test_row_pairs_scored_by_indices(self):
        pairs = [
            RowPair("a", "b", source_row=0, target_row=0),
            RowPair("c", "d", source_row=1, target_row=2),
        ]
        result = evaluate_matching(pairs, [(0, 0), (1, 1)])
        assert result.num_correct == 1

    def test_unknown_row_indices_count_as_incorrect(self):
        pairs = [RowPair("a", "b"), RowPair("c", "d", source_row=1, target_row=1)]
        result = evaluate_matching(pairs, [(0, 0), (1, 1)])
        assert result.num_predicted == 2
        assert result.num_correct == 1
        assert result.precision == 0.5

    def test_pairs_with_equal_row_indices_count_once(self):
        pairs = [
            RowPair("a", "b", source_row=0, target_row=0),
            RowPair("a ", "b", source_row=0, target_row=0),
        ]
        result = evaluate_matching(pairs, [(0, 0)])
        assert result.num_predicted == 1
        assert result.f1 == 1.0

    def test_join_metrics_alias(self):
        result = evaluate_join([(0, 0)], [(0, 0), (1, 1)])
        assert result.precision == 1.0
        assert result.recall == 0.5


class TestReportFormatting:
    def test_format_table_alignment_and_floats(self):
        rows = [
            {"dataset": "web", "f1": 0.8612345, "rows": 92},
            {"dataset": "spreadsheet", "f1": 0.94, "rows": 34},
        ]
        rendered = format_table(rows, title="Table 1")
        assert "Table 1" in rendered
        assert "0.861" in rendered
        assert "spreadsheet" in rendered
        header, separator = rendered.splitlines()[1:3]
        assert len(header) == len(separator)

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        rendered = format_table(rows, columns=["b"])
        assert "a" not in rendered.splitlines()[0]

    def test_format_table_without_title_starts_with_the_header(self):
        rendered = format_table([{"name": "web", "rows": 92}])
        assert rendered.splitlines() == [
            "name | rows",
            "-----+-----",
            "web  | 92  ",
        ]
        assert format_table([]) == "(no rows)"

    def test_format_table_renders_booleans_and_missing_values(self):
        rows = [{"ok": True, "f1": 1.0}, {"f1": 0.5}]
        rendered = format_table(rows, columns=["ok", "f1"])
        lines = rendered.splitlines()
        assert lines[2] == "True | 1.000"
        assert lines[3] == "     | 0.500"

    def test_format_table_custom_float_format(self):
        rendered = format_table([{"x": 0.123456}], float_format="{:.1%}")
        assert rendered.splitlines()[-1].strip() == "12.3%"
