"""Reference row matcher: the original pure-Python Algorithm 1.

This module preserves the seed implementation of the n-gram row matcher as an
executable specification.  It builds hash-of-``frozenset`` inverted indexes
for both columns and, for every source row and n-gram size, re-tokenises the
row, sorts its n-grams, and scores each one with two per-gram hash lookups —
exactly the behaviour the packed fast path in
:mod:`repro.matching.row_matcher` must reproduce bit-for-bit.

``tests/differential/test_matching.py`` asserts that
:class:`~repro.matching.row_matcher.NGramRowMatcher` returns *exactly* the
pairs this matcher returns (same pairs, same order, including Rscore ties).

It also keeps the paper's scoring definitions (Equations 1 and 2).  In the
spirit of IDF, the Inverse Row Frequency of an n-gram *t* in a column *c* is
``1 / (number of rows of c containing t)``, and the representative score of
an n-gram appearing in both the source column SC and the target column TC is
``Rscore(t) = IRF(t, SC) * IRF(t, TC)``.  The packed index fuses this scoring
into :meth:`~repro.matching.index.InvertedIndex.representatives`, with the
identical ``(1/sf) * (1/tf)`` arithmetic so that tie-breaking is
bit-compatible with :func:`representative_score`.

Do not optimise this module; its slowness is the point.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from repro.core.pairs import RowPair
from repro.matching.index import InvertedIndex
from repro.matching.row_matcher import MatchingConfig, RowMatcher
from repro.table.table import Table


def character_ngrams(text: str, size: int, *, lowercase: bool = True) -> list[str]:
    """Return all character n-grams of *size* in *text* (with duplicates).

    Returns an empty list when the text is shorter than *size*.
    """
    if size <= 0:
        raise ValueError(f"n-gram size must be positive, got {size}")
    if lowercase:
        text = text.lower()
    if len(text) < size:
        return []
    return [text[i : i + size] for i in range(len(text) - size + 1)]


def unique_ngrams(text: str, size: int, *, lowercase: bool = True) -> set[str]:
    """The distinct character n-grams of *size* in *text*."""
    return set(character_ngrams(text, size, lowercase=lowercase))


def inverse_row_frequency(gram: str, index: InvertedIndex) -> float:
    """IRF of *gram* in the column represented by *index*.

    Returns 0.0 for an n-gram that occurs in no row (it carries no evidence).
    """
    frequency = index.row_frequency(gram)
    if frequency == 0:
        return 0.0
    return 1.0 / frequency


def representative_score(
    gram: str,
    source_index: InvertedIndex,
    target_index: InvertedIndex,
) -> float:
    """Rscore of *gram*: the product of its IRFs in the source and target columns.

    N-grams absent from either column score 0.0 — they cannot link a source
    row to any target row.
    """
    source_irf = inverse_row_frequency(gram, source_index)
    if source_irf == 0.0:
        return 0.0
    target_irf = inverse_row_frequency(gram, target_index)
    if target_irf == 0.0:
        return 0.0
    return source_irf * target_irf

class _SetIndex:
    """The seed's inverted index: n-gram -> set of row ids, copied per query."""

    def __init__(
        self,
        rows: Sequence[str],
        *,
        min_size: int,
        max_size: int,
        lowercase: bool,
    ) -> None:
        self._lowercase = lowercase
        self._postings: dict[str, set[int]] = defaultdict(set)
        for row_id, text in enumerate(rows):
            for size in range(min_size, max_size + 1):
                for gram in unique_ngrams(text, size, lowercase=lowercase):
                    self._postings[gram].add(row_id)

    def rows_containing(self, gram: str) -> frozenset[int]:
        if self._lowercase:
            gram = gram.lower()
        return frozenset(self._postings.get(gram, frozenset()))

    def row_frequency(self, gram: str) -> int:
        if self._lowercase:
            gram = gram.lower()
        return len(self._postings.get(gram, ()))


class ReferenceRowMatcher(RowMatcher):
    """Algorithm 1 as implemented by the seed (nested loops, set copies)."""

    def __init__(self, config: MatchingConfig | None = None) -> None:
        self._config = config or MatchingConfig()

    @property
    def config(self) -> MatchingConfig:
        """The matcher configuration."""
        return self._config

    def match(
        self,
        source: Table,
        target: Table,
        *,
        source_column: str,
        target_column: str,
    ) -> list[RowPair]:
        return self.match_values(
            list(source[source_column]), list(target[target_column])
        )

    def match_values(
        self,
        source_values: Sequence[str],
        target_values: Sequence[str],
    ) -> list[RowPair]:
        """Match plain value lists (row ids are positions in the lists)."""
        config = self._config
        source_index = _SetIndex(
            source_values,
            min_size=config.min_ngram,
            max_size=config.max_ngram,
            lowercase=config.lowercase,
        )
        target_index = _SetIndex(
            target_values,
            min_size=config.min_ngram,
            max_size=config.max_ngram,
            lowercase=config.lowercase,
        )

        pairs: list[RowPair] = []
        seen: set[tuple[int, int]] = set()
        for source_row, source_text in enumerate(source_values):
            candidate_targets = self._candidates_for_row(
                source_text, source_index, target_index
            )
            if config.max_candidates_per_row:
                candidate_targets = candidate_targets[: config.max_candidates_per_row]
            for target_row in candidate_targets:
                key = (source_row, target_row)
                if key in seen:
                    continue
                seen.add(key)
                pairs.append(
                    RowPair(
                        source=source_text,
                        target=target_values[target_row],
                        source_row=source_row,
                        target_row=target_row,
                    )
                )
        return pairs

    def _candidates_for_row(
        self,
        source_text: str,
        source_index: _SetIndex,
        target_index: _SetIndex,
    ) -> list[int]:
        """Target rows containing a representative n-gram of *source_text*."""
        config = self._config
        candidates: list[int] = []
        seen: set[int] = set()
        for size in range(config.min_ngram, config.max_ngram + 1):
            grams = unique_ngrams(source_text, size, lowercase=config.lowercase)
            if not grams:
                break
            representative = None
            best_score = 0.0
            for gram in sorted(grams):
                source_frequency = source_index.row_frequency(gram)
                if source_frequency == 0:
                    continue
                target_frequency = target_index.row_frequency(gram)
                if target_frequency == 0:
                    continue
                score = (1.0 / source_frequency) * (1.0 / target_frequency)
                if score > best_score:
                    best_score = score
                    representative = gram
            if representative is None:
                continue
            for target_row in sorted(target_index.rows_containing(representative)):
                if target_row not in seen:
                    seen.add(target_row)
                    candidates.append(target_row)
        return candidates
