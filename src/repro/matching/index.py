"""Packed inverted index from character n-grams to row ids.

The index is a hash map keyed by n-gram (Section 4.2.1: "the inverted index
is organized as a hash with every n-gram of size n0 <= n <= nmax as a key"),
but the postings are stored *packed*:

* **Postings** are sorted ``array('i')`` row-id arrays.  Rows are indexed in
  increasing row-id order, each as the one set of its n-grams of every size
  (:func:`~repro.matching.ngrams.ngram_set`), so every posting array is
  born sorted and duplicate-free and never needs a per-query sort or copy —
  :meth:`InvertedIndex.rows_containing` returns the stored array itself.
  A set yields its grams in an order that follows the string hash seed, so
  the postings dict's insertion order varies between interpreters; no
  posting array, frequency or representative does.
* **Row frequencies** live in a parallel ``dict[str, int]`` table, so
  :meth:`InvertedIndex.row_frequency` (the building block of IRF / Rscore)
  is a single O(1) lookup.  The table survives stop-gram pruning, keeping
  Rscore computation exact even when postings have been dropped.
* **Stop-gram pruning** (``stop_gram_cap``): postings of n-grams occurring in
  more than ``stop_gram_cap`` rows can be dropped after construction.  Such
  n-grams behave like stop words — their Rscore is so low that they are
  almost never representatives — and their posting lists are the longest in
  the index, so capping them bounds both memory and the worst-case candidate
  scan.  The cap is off (0) by default; enabling it trades a little recall
  for bounded postings.

On top of the packed layout, :meth:`InvertedIndex.representatives` fuses
Algorithm 1's scoring loop into a single build-style pass over the source
column: each source row's n-gram set is cut to the n-grams that also occur
in the target (all others have Rscore 0 and can never be representatives)
with one set intersection, and counted with one ``Counter.update``; each
row's representative n-gram per size is then computed once, up front — a
maximum of the reference's float score with a lexicographic tie-break, so
the order the set yields its grams in does not matter.  This eliminates the
per-row re-tokenisation, sorting and per-gram hash lookups of the original
matcher.

:class:`ValueIndex` applies the same packed-postings idea to exact values
(whole cells instead of n-grams); the transformation joiner uses it as its
equi-join target map.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Sequence
from typing import Final

from repro.matching.ngrams import ngram_set

#: Shared empty posting list returned for unknown (or pruned) n-grams.
_EMPTY_POSTINGS: Final = array("i")


class InvertedIndex:
    """Map n-grams (of a range of sizes) to the ids of rows containing them."""

    __slots__ = (
        "_min_size",
        "_max_size",
        "_lowercase",
        "_stop_gram_cap",
        "_postings",
        "_frequency",
        "_num_rows",
        "_num_pruned",
        "_last_row_id",
    )

    def __init__(
        self,
        *,
        min_size: int,
        max_size: int,
        lowercase: bool = True,
        stop_gram_cap: int = 0,
    ) -> None:
        if min_size <= 0:
            raise ValueError(f"min n-gram size must be positive, got {min_size}")
        if max_size < min_size:
            raise ValueError(
                f"max n-gram size ({max_size}) must be >= min size ({min_size})"
            )
        if stop_gram_cap < 0:
            raise ValueError(f"stop_gram_cap must be >= 0, got {stop_gram_cap}")
        self._min_size = min_size
        self._max_size = max_size
        self._lowercase = lowercase
        self._stop_gram_cap = stop_gram_cap
        self._postings: dict[str, array] = {}
        self._frequency: dict[str, int] = {}
        self._num_rows = 0
        self._num_pruned = 0
        self._last_row_id = -1

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        rows: Sequence[str],
        *,
        min_size: int,
        max_size: int,
        lowercase: bool = True,
        stop_gram_cap: int = 0,
    ) -> "InvertedIndex":
        """Index every row of *rows* (row ids are their positions).

        A single pass fills the packed postings and the row-frequency table;
        stop-gram pruning (when enabled) runs once at the end.
        """
        index = cls(
            min_size=min_size,
            max_size=max_size,
            lowercase=lowercase,
            stop_gram_cap=stop_gram_cap,
        )
        for row_id, text in enumerate(rows):
            index.add(row_id, text)
        index.prune_stop_grams()
        return index

    def add(self, row_id: int, text: str) -> None:
        """Add one row's n-grams to the index.

        Rows must be added in strictly increasing row-id order so the packed
        posting arrays stay sorted (and duplicate-free) without ever being
        re-sorted.
        """
        if row_id <= self._last_row_id:
            raise ValueError(
                f"rows must be added in strictly increasing order; got row "
                f"{row_id} after row {self._last_row_id}"
            )
        self._last_row_id = row_id
        postings = self._postings
        frequency = self._frequency
        # Most grams are new; copying a one-row array beats building one.
        first = array("i", (row_id,))
        for gram in ngram_set(
            text, self._min_size, self._max_size, lowercase=self._lowercase
        ):
            count = frequency.get(gram)
            if count is None:
                frequency[gram] = 1
                postings[gram] = first[:]
            else:
                # The frequency table is authoritative: keep counting even
                # for grams whose postings were pruned as stop-grams
                # (which must stay pruned, not resurrect partial lists).
                frequency[gram] = count + 1
                arr = postings.get(gram)
                if arr is not None:
                    arr.append(row_id)
        self._num_rows += 1

    def prune_stop_grams(self) -> int:
        """Drop postings of n-grams occurring in more than ``stop_gram_cap`` rows.

        Frequencies are kept (the parallel table is authoritative for IRF /
        Rscore); only the posting arrays are released.  Returns the number of
        n-grams pruned by this call.  No-op when the cap is 0.
        """
        cap = self._stop_gram_cap
        if cap <= 0:
            return 0
        postings = self._postings
        stop_grams = [gram for gram, arr in postings.items() if len(arr) > cap]
        for gram in stop_grams:
            del postings[gram]
        self._num_pruned += len(stop_grams)
        return len(stop_grams)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def num_rows(self) -> int:
        """Number of rows indexed."""
        return self._num_rows

    @property
    def num_ngrams(self) -> int:
        """Number of distinct n-grams in the index (including pruned ones)."""
        return len(self._frequency)

    @property
    def num_pruned_ngrams(self) -> int:
        """Number of n-grams whose postings were dropped as stop-grams."""
        return self._num_pruned

    @property
    def stop_gram_cap(self) -> int:
        """The stop-gram row-frequency cap (0 = pruning disabled)."""
        return self._stop_gram_cap

    def rows_containing(self, gram: str) -> Sequence[int]:
        """Ids of rows containing *gram*, sorted ascending.

        Returns the stored posting array itself — no copy is made, so callers
        must not mutate the result.  Unknown and pruned n-grams yield an
        empty sequence.
        """
        if self._lowercase:
            gram = gram.lower()
        return self._postings.get(gram, _EMPTY_POSTINGS)

    def row_frequency(self, gram: str) -> int:
        """Number of rows containing *gram* (O(1), exact even after pruning)."""
        if self._lowercase:
            gram = gram.lower()
        return self._frequency.get(gram, 0)

    def __contains__(self, gram: object) -> bool:
        if not isinstance(gram, str):
            return False
        if self._lowercase:
            gram = gram.lower()
        return gram in self._frequency

    # ------------------------------------------------------------------ #
    # Fused Algorithm 1: build-time representative n-grams
    # ------------------------------------------------------------------ #
    def representatives(self, source_values: Sequence[str]) -> list[list[str]]:
        """Representative n-grams of every source row, against this target index.

        For each row of *source_values* and every n-gram size in the index's
        range, the n-gram with the highest Rscore (Equation 2) is the row's
        representative of that size; the returned inner lists are ordered by
        size.  Sizes with no scoring n-gram contribute no entry, and — like
        Algorithm 1 — sizes beyond the row length are not considered.

        Ties in Rscore are broken towards the lexicographically smallest
        n-gram, matching the original matcher's deterministic scan order;
        the pick is the same in whatever order a row's n-gram set yields
        its grams.

        This is the fused scoring pass: source-side row frequencies are
        counted in one sweep (each row's n-gram set intersected with the
        target's, since all other n-grams score 0), so no per-row
        re-tokenisation or sorting happens at match time.
        """
        target_frequency = self._frequency
        target_grams = target_frequency.keys()
        source_frequency: Counter[str] = Counter()
        count = source_frequency.update
        kept_rows: list[set[str]] = []
        for text in source_values:
            kept = ngram_set(
                text, self._min_size, self._max_size, lowercase=self._lowercase
            ) & target_grams
            count(kept)
            kept_rows.append(kept)

        representatives: list[list[str]] = []
        for kept in kept_rows:
            # size -> (best score, its gram)
            best: dict[int, tuple[float, str]] = {}
            for gram in kept:
                # Same arithmetic as representative_score in
                # tests/oracles/matching.py so that floating-point behaviour
                # (and therefore tie-breaking) is identical to the reference
                # matcher.
                score = (1.0 / source_frequency[gram]) * (1.0 / target_frequency[gram])
                size = len(gram)
                held = best.get(size)
                if (
                    held is None
                    or score > held[0]
                    or (score == held[0] and gram < held[1])
                ):
                    best[size] = (score, gram)
            representatives.append([best[size][1] for size in sorted(best)])
        return representatives


class ValueIndex:
    """Packed exact-value index: cell value -> sorted ``array('i')`` of row ids.

    The same packed-postings layout as :class:`InvertedIndex`, applied to
    whole cell values.  The transformation joiner uses it as its equi-join
    target map: probing a transformed source value returns the matching
    target rows without any copying.
    """

    __slots__ = ("_postings", "_num_rows")

    def __init__(self) -> None:
        self._postings: dict[str, array] = {}
        self._num_rows = 0

    @classmethod
    def build(cls, values: Sequence[str]) -> "ValueIndex":
        """Index every value of *values* (row ids are their positions)."""
        index = cls()
        postings = index._postings
        for row_id, value in enumerate(values):
            arr = postings.get(value)
            if arr is None:
                postings[value] = array("i", (row_id,))
            else:
                arr.append(row_id)
        index._num_rows = len(values)
        return index

    @property
    def num_rows(self) -> int:
        """Number of rows indexed."""
        return self._num_rows

    @property
    def num_values(self) -> int:
        """Number of distinct values."""
        return len(self._postings)

    def rows_for(self, value: str) -> Sequence[int]:
        """Row ids holding exactly *value* (sorted; the stored array, no copy)."""
        return self._postings.get(value, _EMPTY_POSTINGS)

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, str):
            return False
        return value in self._postings
