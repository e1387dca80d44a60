"""Prefix-filtered set-similarity row matching (PPJoin-style).

:class:`SetSimRowMatcher` is the second candidate-generation regime of the
system, next to Algorithm 1's representative n-grams: rows are compared as
*token sets*, and candidate pairs are generated with the classic
prefix/position-filter machinery of py_stringsimjoin-style set-similarity
joins.  Where a handful of rare tokens identifies a match (token-rich
strings: names, addresses, descriptions), this prunes the ``O(n*m)`` pair
space far more cheaply than n-gram representative selection.

The pipeline, in order:

1. **Global token ordering** — every token of both columns is ranked by
   document frequency ascending, ties broken by the token string itself.
   The tie-break matters: it makes the ordering (and therefore every prefix,
   every posting list, and the final match set) independent of the
   per-interpreter string hash seed, the same trap the n-gram dedup fix of
   PR 8 closed for spawn workers.
2. **Prefix filter** — a row's tokens, sorted by that global order, need
   only their first ``p`` tokens indexed/probed: two rows clearing the
   threshold must share a token within both prefixes.  ``p`` is
   ``|x| - ceil(t*|x|) + 1`` for jaccard, ``|x| - ceil(t^2*|x|) + 1`` for
   cosine and ``|x| - T + 1`` for overlap (threshold ``T`` an absolute
   count), each computed with a conservative epsilon so float rounding can
   only lengthen a prefix, never cut a true match.
3. **Position-augmented inverted index** — the target prefixes feed
   :class:`SetSimIndex`: per token, parallel arrays of (row id, prefix
   position, row token count).  Probing applies the size filter and the
   positional overlap bound per posting entry
   (:func:`filter_token_postings`).
4. **Exact verification** — every surviving candidate is verified with an
   exact sorted-int-merge overlap count and the measure's exact similarity
   expression.  Filters are conservative-only, verification is exact, so
   the match set is *provably identical* to brute-force all-pairs
   similarity at the same threshold — the speedup is pure pruning, never
   approximation.  The property tests assert exactly that.

Sharding: matching is per-source-row once the ordering and the index exist,
so the engine row-shards through
:func:`~repro.parallel.executor.map_sharded` (:func:`_match_shard`) with
byte-identical concatenation.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.pairs import RowPair
from repro.matching.row_matcher import MatchingConfig, RowMatcher
from repro.matching.tokenize import tokenizer_for
from repro.parallel.executor import (
    map_sharded,
    tuned_num_workers,
    worker_state,
)
from repro.table.table import Table

#: Sentinel upper size bound for measures without one (overlap).
_NO_UPPER_BOUND = 2**31 - 1

#: Conservative slack on filter-bound comparisons.  Filters err on the side
#: of admitting a candidate, never pruning one — a borderline admission only
#: costs one exact verification, a borderline prune would lose a match.
FILTER_EPS = 1e-9


@dataclass(frozen=True)
class SetSimStats:
    """Candidate-generation statistics of one set-similarity matching run.

    ``all_pairs`` is the brute-force pair space ``|source| * |target|``;
    ``candidates`` the pairs that survived the prefix/size/position filters
    and were exactly verified; ``matches`` the pairs that cleared the
    threshold.  ``candidates / all_pairs`` — the pruning ratio — is *why*
    the engine is fast.
    """

    num_source_rows: int
    num_target_rows: int
    all_pairs: int
    candidates: int
    matches: int

    @property
    def pruning_ratio(self) -> float:
        """Fraction of the all-pairs space that reached verification."""
        if self.all_pairs == 0:
            return 0.0
        return self.candidates / self.all_pairs


def build_token_order(token_lists: Iterable[Sequence[str]]) -> dict[str, int]:
    """Global document-frequency token ranking over all given token lists.

    Rare tokens rank first (they have the shortest posting lists, so
    prefixes built from them generate the fewest candidates); ties are
    broken by the token string, never by hash order, so the ranking is
    deterministic across processes and ``PYTHONHASHSEED`` values.
    """
    frequency: dict[str, int] = {}
    for tokens in token_lists:
        for token in tokens:
            frequency[token] = frequency.get(token, 0) + 1
    ranked = sorted(frequency.items(), key=lambda item: (item[1], item[0]))
    return {token: rank for rank, (token, _) in enumerate(ranked)}


def ordered_token_ids(
    tokens: Sequence[str], order: dict[str, int]
) -> array[int]:
    """The row's tokens as globally-ordered ranks, ascending (rarest first)."""
    return array("i", sorted(order[token] for token in tokens))


def prefix_length(size: int, similarity: str, threshold: float) -> int:
    """How many of a row's ordered tokens must be indexed/probed.

    Any row pair clearing the threshold shares a token within both rows'
    prefixes of this length.  0 means the row cannot match anything (e.g.
    an empty token set, or overlap demanding more tokens than it has).
    The epsilon makes the inner ``ceil`` conservative: rounding can only
    lengthen the prefix, never cut a true match.
    """
    if size <= 0:
        return 0
    if similarity == "jaccard":
        minimum_kept = math.ceil(threshold * size - FILTER_EPS)
    elif similarity == "cosine":
        minimum_kept = math.ceil(threshold * threshold * size - FILTER_EPS)
    else:  # overlap: threshold is the required count itself
        minimum_kept = math.ceil(threshold - FILTER_EPS)
    return max(0, min(size, size - minimum_kept + 1))


def size_bounds(size: int, similarity: str, threshold: float) -> tuple[int, int]:
    """Admissible target token counts for a probe row of *size* tokens.

    Rows outside these bounds cannot clear the threshold whatever their
    overlap; the bounds are epsilon-conservative in both directions.
    """
    if similarity == "jaccard":
        low = math.ceil(threshold * size - FILTER_EPS)
        high = math.floor(size / threshold + FILTER_EPS)
    elif similarity == "cosine":
        squared = threshold * threshold
        low = math.ceil(squared * size - FILTER_EPS)
        high = math.floor(size / squared + FILTER_EPS)
    else:  # overlap needs at least the required count, no upper bound
        low = math.ceil(threshold - FILTER_EPS)
        high = _NO_UPPER_BOUND
    return max(low, 1), high


def similarity_score(
    overlap: int, probe_size: int, candidate_size: int, similarity: str
) -> float:
    """The exact similarity of two token sets given their overlap.

    This is the verification arbiter *and* the brute-force oracle's
    expression — one shared formula, evaluated in one order, so engine and
    oracle agree even at exact-threshold floating-point ties.
    """
    if overlap == 0:
        return 0.0
    if similarity == "jaccard":
        return overlap / (probe_size + candidate_size - overlap)
    if similarity == "cosine":
        return overlap / math.sqrt(probe_size * candidate_size)
    return float(overlap)


def required_overlap(
    probe_size: int, candidate_size: int, similarity: str, threshold: float
) -> float:
    """The minimum token overlap two rows of these sizes need to clear
    *threshold* — the bound every prefix/position filter compares against.

    jaccard: ``t/(1+t) * (|x|+|y|)``; cosine: ``t * sqrt(|x|*|y|)``;
    overlap: the threshold itself (an absolute count).
    """
    if similarity == "jaccard":
        return threshold / (1.0 + threshold) * (probe_size + candidate_size)
    if similarity == "cosine":
        return threshold * math.sqrt(probe_size * candidate_size)
    return float(threshold)


def filter_token_postings(
    rows: Sequence[int],
    positions: Sequence[int],
    sizes: Sequence[int],
    *,
    probe_size: int,
    probe_position: int,
    similarity: str,
    threshold: float,
    size_low: int,
    size_high: int,
) -> list[int]:
    """Admit the posting entries that can still reach the overlap bound.

    *rows*/*positions*/*sizes* are one token's parallel posting arrays
    (target row id ascending, the token's position in that row's ordered
    token list, and the row's token count).  An entry survives when the
    candidate's size lies in ``[size_low, size_high]`` and the positional
    upper bound on the overlap — one shared token plus whatever remains
    after both positions — still reaches the measure's required overlap.
    """
    admitted: list[int] = []
    remaining_probe = probe_size - probe_position - 1
    for entry in range(len(rows)):
        candidate_size = sizes[entry]
        if candidate_size < size_low or candidate_size > size_high:
            continue
        alpha = required_overlap(probe_size, candidate_size, similarity, threshold)
        bound = 1 + min(remaining_probe, candidate_size - positions[entry] - 1)
        if bound + FILTER_EPS >= alpha:
            admitted.append(rows[entry])
    return admitted


def intersect_count(left: Sequence[int], right: Sequence[int]) -> int:
    """Size of the intersection of two sorted duplicate-free int sequences."""
    i = j = count = 0
    left_len, right_len = len(left), len(right)
    while i < left_len and j < right_len:
        a, b = left[i], right[j]
        if a == b:
            count += 1
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return count


class SetSimIndex:
    """Position-augmented inverted index over the targets' prefix tokens.

    ``postings[token_id]`` holds three parallel ``array('i')`` columns:
    target row ids (ascending — build order), the token's position in the
    row's globally-ordered token list, and the row's token count.  Packing
    the count into the posting keeps the probe's size filter free of row-id
    indirections.

    The full ordered token-id lists (``token_ids``) ride along for exact
    verification.  Everything is plain arrays and dicts: the index pickles
    once per worker under spawn and shares via fork COW otherwise.
    """

    __slots__ = ("postings", "sizes", "token_ids", "similarity", "threshold")

    def __init__(
        self,
        token_ids: list[array[int]],
        similarity: str,
        threshold: float,
    ) -> None:
        self.token_ids = token_ids
        self.sizes = [len(ids) for ids in token_ids]
        self.similarity = similarity
        self.threshold = threshold
        postings: dict[int, tuple[array[int], array[int], array[int]]] = {}
        for row, ids in enumerate(token_ids):
            size = len(ids)
            for position in range(prefix_length(size, similarity, threshold)):
                entry = postings.get(ids[position])
                if entry is None:
                    entry = (array("i"), array("i"), array("i"))
                    postings[ids[position]] = entry
                entry[0].append(row)
                entry[1].append(position)
                entry[2].append(size)
        self.postings = postings

    def __getstate__(self):
        return (
            self.postings,
            self.sizes,
            self.token_ids,
            self.similarity,
            self.threshold,
        )

    def __setstate__(self, state) -> None:
        (
            self.postings,
            self.sizes,
            self.token_ids,
            self.similarity,
            self.threshold,
        ) = state


def match_token_rows(
    index: SetSimIndex,
    source_token_ids: Sequence[array[int]],
    source_values: Sequence[str],
    target_values: Sequence[str],
    *,
    start: int = 0,
    stop: int | None = None,
) -> tuple[list[RowPair], int]:
    """Match source rows ``[start, stop)`` against the indexed targets.

    Returns ``(pairs, candidates)``: *candidates* counts the (source,
    target) pairs that survived the filters and were exactly verified — the
    numerator of the pruning ratio.  Work is per-source-row with targets
    emitted in ascending order, so shard outputs concatenate to exactly the
    serial output (the sharded path's byte-identity argument).
    """
    similarity = index.similarity
    threshold = index.threshold
    postings = index.postings
    target_ids = index.token_ids
    target_sizes = index.sizes
    pairs: list[RowPair] = []
    candidates_total = 0
    if stop is None:
        stop = len(source_token_ids)
    for row in range(start, stop):
        probe_ids = source_token_ids[row]
        probe_size = len(probe_ids)
        probe_prefix = prefix_length(probe_size, similarity, threshold)
        if probe_prefix <= 0:
            continue
        size_low, size_high = size_bounds(probe_size, similarity, threshold)
        admitted: set[int] = set()
        for position in range(probe_prefix):
            entry = postings.get(probe_ids[position])
            if entry is None:
                continue
            admitted.update(
                filter_token_postings(
                    entry[0],
                    entry[1],
                    entry[2],
                    probe_size=probe_size,
                    probe_position=position,
                    similarity=similarity,
                    threshold=threshold,
                    size_low=size_low,
                    size_high=size_high,
                )
            )
        if not admitted:
            continue
        candidates_total += len(admitted)
        source_text = source_values[row]
        # Candidate ids are ints, but sort anyway: emission order must come
        # from row ids, never from set iteration order.
        for target_row in sorted(admitted):
            overlap = intersect_count(probe_ids, target_ids[target_row])
            score = similarity_score(
                overlap, probe_size, target_sizes[target_row], similarity
            )
            if score >= threshold:
                pairs.append(
                    RowPair(
                        source=source_text,
                        target=target_values[target_row],
                        source_row=row,
                        target_row=target_row,
                    )
                )
    return pairs, candidates_total


def _match_shard(start: int, stop: int) -> tuple[list[RowPair], int]:
    """Shard worker of :meth:`SetSimRowMatcher.match_values_with_stats`.

    Matches source rows ``[start, stop)`` of the shared ``(index,
    source_token_ids, source_values, target_values)`` state.
    """
    index, source_ids, source_values, target_values = worker_state()
    return match_token_rows(
        index, source_ids, source_values, target_values, start=start, stop=stop
    )


class SetSimRowMatcher(RowMatcher):
    """Prefix-filtered set-similarity candidate pair detection.

    Exact by construction: the match set equals brute-force all-pairs
    similarity at the same threshold (see the module docstring for the
    argument), serial and sharded, at any worker count.
    """

    def __init__(self, config: MatchingConfig | None = None) -> None:
        self._config = config or MatchingConfig(engine="setsim")

    @property
    def config(self) -> MatchingConfig:
        """The matcher configuration (``setsim_*`` fields drive this engine)."""
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
        return self.match_values_with_stats(source_values, target_values)[0]

    def match_values_with_stats(
        self,
        source_values: Sequence[str],
        target_values: Sequence[str],
    ) -> tuple[list[RowPair], SetSimStats]:
        """Match and report the candidate-pruning statistics.

        The pruning ratio (``stats.candidates / stats.all_pairs``) is the
        fraction of the brute-force pair space that paid for exact
        verification.
        """
        config = self._config
        source_values = list(source_values)
        target_values = list(target_values)
        tokenize = tokenizer_for(
            config.setsim_tokenizer,
            qgram_size=config.setsim_qgram,
            lowercase=config.lowercase,
        )
        source_tokens = [tokenize(value) for value in source_values]
        target_tokens = [tokenize(value) for value in target_values]
        # One global ordering over BOTH columns: source prefixes and target
        # prefixes must rank tokens identically or the prefix-filter theorem
        # does not hold.
        order = build_token_order([*source_tokens, *target_tokens])
        source_ids = [ordered_token_ids(tokens, order) for tokens in source_tokens]
        target_ids = [ordered_token_ids(tokens, order) for tokens in target_tokens]
        index = SetSimIndex(
            target_ids, config.setsim_similarity, config.setsim_threshold
        )
        num_workers = tuned_num_workers(
            config.num_workers,
            len(source_values),
            min_items_per_worker=config.min_rows_per_worker,
        )
        if num_workers > 1 and target_values:
            shards = map_sharded(
                (index, source_ids, source_values, target_values),
                _match_shard,
                len(source_ids),
                num_workers=num_workers,
                task_timeout=config.task_timeout_s or None,
                max_shard_retries=config.shard_retries,
                serial_fallback=config.serial_fallback,
            )
            # Shards arrive in row order: concatenating them is the serial
            # pair list, and their candidate counts sum to the serial count.
            pairs: list[RowPair] = []
            candidates = 0
            for shard_pairs, shard_candidates in shards:
                pairs.extend(shard_pairs)
                candidates += shard_candidates
        else:
            pairs, candidates = match_token_rows(
                index, source_ids, source_values, target_values
            )
        stats = SetSimStats(
            num_source_rows=len(source_values),
            num_target_rows=len(target_values),
            all_pairs=len(source_values) * len(target_values),
            candidates=candidates,
            matches=len(pairs),
        )
        return pairs, stats
