"""Unit tests for repro.utils (text and timing)."""

from __future__ import annotations

import string
import time

import pytest

from repro.utils.text import COMMON_SEPARATORS, is_separator, tokenize
from repro.utils.timing import StageTimer


class TestTokenize:
    def test_splits_on_punctuation_and_space(self):
        assert tokenize("Rafiei, Davood") == ["Rafiei", "Davood"]
        assert tokenize("(780) 432-3636") == ["780", "432", "3636"]

    def test_empty_and_separator_only(self):
        assert tokenize("") == []
        assert tokenize("  ,. ") == []

    def test_single_token(self):
        assert tokenize("hello") == ["hello"]

    def test_is_separator(self):
        assert is_separator(" ") and is_separator(",") and is_separator(".")
        assert not is_separator("a") and not is_separator("1")

    @pytest.mark.parametrize(
        ("text", "tokens"),
        [
            ("a\tb\nc", ["a", "b", "c"]),
            ("Köln-Süd", ["Köln", "Süd"]),
            ("snake_case", ["snake", "case"]),
            ("x1y2", ["x1y2"]),
            ("--a--", ["a"]),
        ],
    )
    def test_tokenize_cases(self, text, tokens):
        assert tokenize(text) == tokens

    def test_separators_are_ascii_punctuation_and_whitespace(self):
        assert COMMON_SEPARATORS == frozenset(string.punctuation + string.whitespace)
        assert all(is_separator(char) for char in string.punctuation)
        assert not any(is_separator(char) for char in "éß東")

    def test_tokens_are_the_text_without_its_separators(self):
        for text in ["Rafiei, Davood", "  a..b  ", "(780) 432-3636", "plain"]:
            kept = "".join(char for char in text if not is_separator(char))
            assert "".join(tokenize(text)) == kept


class TestTimers:
    def test_stage_timer_accumulates_per_stage(self):
        timer = StageTimer()
        with timer.stage("a"):
            time.sleep(0.005)
        with timer.stage("a"):
            time.sleep(0.005)
        with timer.stage("b"):
            pass
        stages = timer.as_dict()
        assert set(stages) == {"a", "b"}
        assert stages["a"] > stages["b"]

    def test_stage_time_is_recorded_when_the_body_raises(self):
        timer = StageTimer()
        with pytest.raises(RuntimeError):
            with timer.stage("failing"):
                raise RuntimeError("boom")
        assert timer.as_dict()["failing"] >= 0.0

    def test_as_dict_returns_a_copy(self):
        timer = StageTimer()
        assert timer.as_dict() == {}
        with timer.stage("a"):
            pass
        snapshot = timer.as_dict()
        snapshot["a"] = -1.0
        assert timer.as_dict()["a"] >= 0.0
