"""Property-based tests for the table substrate and the row matcher."""

from __future__ import annotations

import string

from hypothesis import given
from hypothesis import strategies as st
from oracles.matching import character_ngrams, inverse_row_frequency, unique_ngrams

from repro.matching.index import InvertedIndex
from repro.table.ops import equi_join
from repro.table.table import Table

CELL = st.text(alphabet=string.ascii_lowercase + string.digits + " ,-", max_size=12)
COLUMN_NAME = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)


@st.composite
def tables(draw):
    num_columns = draw(st.integers(min_value=1, max_value=3))
    num_rows = draw(st.integers(min_value=0, max_value=6))
    names = draw(
        st.lists(COLUMN_NAME, min_size=num_columns, max_size=num_columns, unique=True)
    )
    columns = {
        name: draw(st.lists(CELL, min_size=num_rows, max_size=num_rows))
        for name in names
    }
    if num_rows == 0:
        # Tables require at least one column; zero rows are fine.
        return Table({name: [] for name in names})
    return Table(columns)


class TestTableProperties:
    @given(table=tables(), data=st.data())
    def test_take_preserves_values(self, table, data):
        if table.num_rows == 0:
            return
        indices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=table.num_rows - 1),
                min_size=1,
                max_size=5,
            )
        )
        taken = table.take(indices)
        for out_row, src_row in enumerate(indices):
            for name in table.column_names:
                assert taken[name][out_row] == table[name][src_row]

    @given(left=st.lists(CELL, max_size=8), right=st.lists(CELL, max_size=8))
    def test_equi_join_matches_nested_loop_semantics(self, left, right):
        if not left or not right:
            return
        left_table = Table({"k": left})
        right_table = Table({"k": right})
        pairs = set(equi_join(left_table, right_table, left_on="k", right_on="k"))
        expected = {
            (i, j)
            for i, lv in enumerate(left)
            for j, rv in enumerate(right)
            if lv == rv
        }
        assert pairs == expected


class TestMatchingProperties:
    @given(text=CELL, size=st.integers(min_value=1, max_value=5))
    def test_ngram_count(self, text, size):
        grams = character_ngrams(text, size)
        assert len(grams) == max(0, len(text) - size + 1)
        for gram in grams:
            assert gram in text.lower()

    @given(rows=st.lists(CELL, min_size=1, max_size=8))
    def test_inverted_index_is_consistent_with_direct_search(self, rows):
        index = InvertedIndex.build(rows, min_size=2, max_size=3)
        for size in (2, 3):
            for row_id, row in enumerate(rows):
                for gram in unique_ngrams(row, size):
                    assert row_id in index.rows_containing(gram)

    @given(rows=st.lists(CELL, min_size=1, max_size=8), gram=st.text(
        alphabet=string.ascii_lowercase, min_size=2, max_size=3
    ))
    def test_irf_bounds(self, rows, gram):
        index = InvertedIndex.build(rows, min_size=2, max_size=3)
        irf = inverse_row_frequency(gram, index)
        assert 0.0 <= irf <= 1.0
        if irf > 0:
            assert irf >= 1.0 / len(rows)
