"""Property-based tests for transformation units and transformations."""

from __future__ import annotations

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transformation import Transformation
from repro.core.units import Literal, Split, SplitSubstr, Substr, TwoCharSplitSubstr

TEXT = st.text(alphabet=string.ascii_letters + string.digits + " ,.-@/", max_size=40)
NON_EMPTY_TEXT = TEXT.filter(bool)
DELIMITER = st.sampled_from(list(" ,.-@/"))


@st.composite
def substr_units(draw):
    start = draw(st.integers(min_value=0, max_value=20))
    end = draw(st.integers(min_value=start + 1, max_value=30))
    return Substr(start, end)


@st.composite
def split_units(draw):
    return Split(draw(DELIMITER), draw(st.integers(min_value=1, max_value=6)))


@st.composite
def split_substr_units(draw):
    start = draw(st.integers(min_value=0, max_value=10))
    end = draw(st.integers(min_value=start + 1, max_value=15))
    return SplitSubstr(
        draw(DELIMITER), draw(st.integers(min_value=1, max_value=6)), start, end
    )


@st.composite
def literal_units(draw):
    return Literal(draw(TEXT))


ANY_UNIT = st.one_of(substr_units(), split_units(), split_substr_units(), literal_units())


class TestUnitProperties:
    @given(unit=substr_units(), source=TEXT)
    def test_substr_output_is_a_substring_of_the_source(self, unit, source):
        output = unit.apply(source)
        if output is not None:
            assert output in source
            assert len(output) == unit.end - unit.start

    @given(unit=split_units(), source=TEXT)
    def test_split_output_is_a_substring_without_the_delimiter(self, unit, source):
        output = unit.apply(source)
        if output is not None:
            assert output in source
            assert unit.delimiter not in output

    @given(unit=split_substr_units(), source=TEXT)
    def test_split_substr_output_is_a_substring_of_the_source(self, unit, source):
        output = unit.apply(source)
        if output is not None:
            assert output in source

    @given(text=TEXT, source=TEXT)
    def test_literal_ignores_the_input(self, text, source):
        assert Literal(text).apply(source) == text

    @given(unit=ANY_UNIT, source=TEXT)
    def test_apply_is_deterministic(self, unit, source):
        assert unit.apply(source) == unit.apply(source)

    @given(unit=ANY_UNIT)
    def test_units_equal_to_themselves_and_hash_consistently(self, unit):
        assert unit == unit
        assert hash(unit) == hash(unit)

    @given(
        d1=DELIMITER,
        d2=DELIMITER,
        index=st.integers(min_value=1, max_value=5),
        source=TEXT,
    )
    @settings(max_examples=60)
    def test_two_char_split_matches_manual_split(self, d1, d2, index, source):
        if d1 == d2:
            return
        unit = TwoCharSplitSubstr(d1, d2, index, 0, 1)
        output = unit.apply(source)
        if output is not None:
            pieces = source.replace(d2, d1).split(d1)
            assert output == pieces[index - 1][0:1]


class TestTransformationProperties:
    @given(units=st.lists(ANY_UNIT, min_size=1, max_size=4), source=TEXT)
    def test_output_is_concatenation_of_unit_outputs(self, units, source):
        transformation = Transformation(units)
        outputs = [unit.apply(source) for unit in units]
        expected = None if any(o is None for o in outputs) else "".join(outputs)
        assert transformation.apply(source) == expected

    @given(units=st.lists(ANY_UNIT, min_size=1, max_size=4), source=TEXT)
    def test_simplified_preserves_semantics(self, units, source):
        transformation = Transformation(units)
        assert transformation.apply(source) == transformation.simplified().apply(source)

    @given(units=st.lists(ANY_UNIT, min_size=1, max_size=4))
    def test_placeholder_and_literal_counts_partition_units(self, units):
        transformation = Transformation(units)
        literals = sum(isinstance(unit, Literal) for unit in transformation.units)
        assert transformation.num_placeholders + literals == len(transformation)

    @given(units=st.lists(ANY_UNIT, min_size=1, max_size=3), source=TEXT)
    def test_covers_agrees_with_apply(self, units, source):
        transformation = Transformation(units)
        output = transformation.apply(source)
        if output is not None:
            assert transformation.covers(source, output)
