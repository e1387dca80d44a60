"""Unit tests for Transformation (repro.core.transformation)."""

from __future__ import annotations

import pytest

from repro.core.transformation import Transformation
from repro.core.units import Literal, Split, SplitSubstr, Substr


@pytest.fixture
def paper_transformation() -> Transformation:
    """The transformation from the Auto-Join walk-through in Section 3.2."""
    return Transformation(
        [SplitSubstr(" ", 2, 0, 1), Literal(" "), Split(",", 1)]
    )


class TestApply:
    def test_concatenates_unit_outputs(self, paper_transformation):
        assert paper_transformation.apply("bowling, michael") == "m bowling"
        assert paper_transformation.apply("gosgnach, simon") == "s gosgnach"

    def test_returns_none_when_any_unit_fails(self, paper_transformation):
        # No space or comma: Split/SplitSubstr are not applicable.
        assert paper_transformation.apply("nodelimiters") is None

    def test_covers(self, paper_transformation):
        assert paper_transformation.covers("bowling, michael", "m bowling")
        assert not paper_transformation.covers("bowling, michael", "x bowling")

    def test_literal_only_transformation(self):
        transformation = Transformation([Literal("constant")])
        assert transformation.apply("whatever") == "constant"
        assert transformation.is_constant is True

    def test_single_substr(self):
        transformation = Transformation([Substr(0, 3)])
        assert transformation.apply("abcdef") == "abc"


class TestValueSemantics:
    def test_equality(self):
        left = Transformation([Literal("a"), Substr(0, 1)])
        right = Transformation([Literal("a"), Substr(0, 1)])
        assert left == right
        assert hash(left) == hash(right)

    def test_inequality_on_order(self):
        left = Transformation([Literal("a"), Substr(0, 1)])
        right = Transformation([Substr(0, 1), Literal("a")])
        assert left != right

    def test_usable_in_sets(self):
        transformations = {
            Transformation([Literal("a")]),
            Transformation([Literal("a")]),
            Transformation([Literal("b")]),
        }
        assert len(transformations) == 2

    def test_empty_transformation_rejected(self):
        with pytest.raises(ValueError):
            Transformation([])

    def test_len_and_iteration(self, paper_transformation):
        assert len(paper_transformation) == 3
        assert list(paper_transformation) == list(paper_transformation.units)

    def test_repr_contains_units(self, paper_transformation):
        rendered = repr(paper_transformation)
        assert "SplitSubstr" in rendered and "Literal" in rendered


class TestQualityMeasures:
    def test_num_placeholders_counts_non_constant_units(self, paper_transformation):
        assert paper_transformation.num_placeholders == 2

    def test_constant_detection(self):
        assert Transformation([Literal("a"), Literal("b")]).is_constant
        assert not Transformation([Literal("a"), Substr(0, 1)]).is_constant


class TestSimplified:
    def test_merges_adjacent_literals(self):
        transformation = Transformation(
            [Literal("a"), Literal("b"), Substr(0, 1), Literal("c")]
        )
        simplified = transformation.simplified()
        assert simplified == Transformation([Literal("ab"), Substr(0, 1), Literal("c")])

    def test_noop_when_nothing_to_merge(self):
        transformation = Transformation([Literal("a"), Substr(0, 1)])
        assert transformation.simplified() is transformation

    def test_semantics_preserved(self):
        transformation = Transformation([Literal("x"), Literal("y"), Substr(1, 3)])
        simplified = transformation.simplified()
        for source in ["abcdef", "zz", "hello world"]:
            assert transformation.apply(source) == simplified.apply(source)


class TestApplyAll:
    def test_applies_each_transformation(self):
        transformations = [
            Transformation([Substr(0, 2)]),
            Transformation([Literal("k")]),
            Transformation([Split("-", 2)]),
        ]
        assert [t.apply("ab-cd") for t in transformations] == ["ab", "k", "cd"]
