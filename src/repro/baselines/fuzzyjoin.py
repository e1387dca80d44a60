"""An Auto-FuzzyJoin-style similarity-join baseline (Li et al., SIGMOD 2021).

Auto-FuzzyJoin ("AFJ") joins rows whose textual similarity clears a
threshold that the system picks automatically, without labeled examples and
without learning transformations.  The published system explores a space of
similarity functions and tokenizations and uses an unsupervised
precision-estimation procedure; this reimplementation keeps the essential
behaviour the paper's comparison relies on:

* several candidate similarity configurations (token Jaccard, character
  3-gram Jaccard, containment),
* for each configuration and each threshold from a grid, a one-to-many join
  of every source row to the target rows above the threshold,
* an unsupervised precision proxy — the fraction of joined source rows with a
  *unique* best match whose score clearly separates from the runner-up — used
  to select the configuration/threshold, mimicking AFJ's precision-first
  auto-programming.

Like the original, AFJ returns row pairs only; it produces no transformations
and therefore no interpretable join patterns, which is what Table 3's
comparison highlights.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.table.table import Table
from repro.utils.text import tokenize

#: Character n-gram size of the n-gram similarities.
_NGRAM_SIZE = 3

#: The threshold grid each similarity is joined at.
_THRESHOLDS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

#: The candidate similarity configurations.
_SIMILARITIES = ("token_jaccard", "ngram_jaccard", "containment")

#: The precision proxy above which configurations rank by pair count alone.
_TARGET_PRECISION = 0.9


@dataclass
class FuzzyJoinResult:
    """Row pairs produced by the similarity join plus the chosen configuration."""

    pairs: list[tuple[int, int]] = field(default_factory=list)
    similarity: str = ""
    threshold: float = 0.0
    estimated_precision: float = 0.0

    def as_set(self) -> set[tuple[int, int]]:
        """The joined pairs as a set."""
        return set(self.pairs)


def _token_set(text: str) -> frozenset[str]:
    return frozenset(tokenize(text.lower()))


def _ngram_set(text: str) -> frozenset[str]:
    text = text.lower()
    if len(text) < _NGRAM_SIZE:
        return frozenset({text}) if text else frozenset()
    return frozenset(
        text[i : i + _NGRAM_SIZE] for i in range(len(text) - _NGRAM_SIZE + 1)
    )


def _jaccard(left: frozenset[str], right: frozenset[str]) -> float:
    if not left or not right:
        return 0.0
    intersection = len(left & right)
    if intersection == 0:
        return 0.0
    return intersection / len(left | right)


def _containment(left: frozenset[str], right: frozenset[str]) -> float:
    if not left or not right:
        return 0.0
    return len(left & right) / min(len(left), len(right))


class AutoFuzzyJoin:
    """Similarity join with automatic configuration selection."""

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def join_values(
        self,
        source_values: Sequence[str],
        target_values: Sequence[str],
    ) -> FuzzyJoinResult:
        """Join two value lists; row ids are list positions."""
        best_result = FuzzyJoinResult()
        best_score = -1.0
        for similarity in _SIMILARITIES:
            matrix = self._similarity_matrix(source_values, target_values, similarity)
            for threshold in _THRESHOLDS:
                pairs = self._join_at_threshold(matrix, threshold)
                if not pairs:
                    continue
                precision_proxy = self._estimate_precision(matrix, pairs)
                # Prefer configurations that look precise, then more complete.
                score = (
                    min(precision_proxy, _TARGET_PRECISION),
                    len(pairs),
                )
                flat_score = score[0] * 1_000_000 + score[1]
                if flat_score > best_score:
                    best_score = flat_score
                    best_result = FuzzyJoinResult(
                        pairs=pairs,
                        similarity=similarity,
                        threshold=threshold,
                        estimated_precision=precision_proxy,
                    )
        return best_result

    def join(
        self,
        source: Table,
        target: Table,
        *,
        source_column: str,
        target_column: str,
    ) -> FuzzyJoinResult:
        """Join two tables on the given columns."""
        return self.join_values(
            list(source[source_column]), list(target[target_column])
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _similarity_matrix(
        source_values: Sequence[str],
        target_values: Sequence[str],
        similarity: str,
    ) -> list[list[float]]:
        to_set = _token_set if similarity == "token_jaccard" else _ngram_set
        measure = _containment if similarity == "containment" else _jaccard
        source_sets = [to_set(v) for v in source_values]
        target_sets = [to_set(v) for v in target_values]
        return [
            [measure(source_set, target_set) for target_set in target_sets]
            for source_set in source_sets
        ]

    @staticmethod
    def _join_at_threshold(
        matrix: list[list[float]], threshold: float
    ) -> list[tuple[int, int]]:
        """Join every source row to its best target row above the threshold."""
        pairs: list[tuple[int, int]] = []
        for source_row, scores in enumerate(matrix):
            if not scores:
                continue
            best_target = max(range(len(scores)), key=lambda j: scores[j])
            if scores[best_target] >= threshold:
                pairs.append((source_row, best_target))
        return pairs

    @staticmethod
    def _estimate_precision(
        matrix: list[list[float]], pairs: list[tuple[int, int]]
    ) -> float:
        """Unsupervised precision proxy: margin between best and second best.

        A joined pair looks reliable when the chosen target's score clearly
        separates from the runner-up for the same source row; the proxy is
        the fraction of joined pairs with a separation of at least 20 % of
        the best score (or a unique candidate).
        """
        if not pairs:
            return 0.0
        confident = 0
        for source_row, target_row in pairs:
            scores = matrix[source_row]
            best = scores[target_row]
            runner_up = max(
                (score for j, score in enumerate(scores) if j != target_row),
                default=0.0,
            )
            if best > 0 and (runner_up == 0.0 or (best - runner_up) / best >= 0.2):
                confident += 1
        return confident / len(pairs)
