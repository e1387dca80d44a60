"""Selecting the final transformation set (Section 4.1.6).

Two problem variants:

* **Maximum coverage** — report the single transformation (or top-k) covering
  the most input rows.
* **Minimal cover** — find a small set of transformations that together cover
  every coverable row.  Exact minimal cover is the NP-complete set-cover
  problem; the paper (and this module) uses the classic greedy algorithm with
  its ``H(n) <= ln(n) + 1`` approximation guarantee.

Both are *index-level engines*, :func:`top_k_indices` and
:func:`greedy_cover_indices`: they take each candidate's covered rows as a
packed integer bitmask (bit r = row r) and a callable giving a candidate's
tie-breaking key by its index, and return indices.  Discovery runs them on
the masks the coverage walk returns, one per trie terminal, so a candidate
becomes a :class:`~repro.core.transformation.Transformation` only when its
key is asked for or it is returned; :func:`top_k_by_coverage` and
:func:`greedy_minimal_cover` are the same engines over a list of
:class:`~repro.core.coverage.CoverageResult`.  Three accelerations apply:

* **Bitset row sets** — the greedy marginal gain is one
  ``(mask & ~covered).bit_count()`` over machine words instead of a
  Python-level set difference, and unions are single ``|`` ops.
* **CELF lazy-greedy selection** — coverage gain is submodular (covering
  more rows first can never *increase* another transformation's marginal
  gain), so the cover keeps candidates in a max-heap of stale upper bounds
  and re-evaluates only those whose bound still wins, instead of rescoring
  every candidate every round (Leskovec et al.'s lazy-greedy / CELF).
  Tie-breaking is byte-identical to the plain greedy scan: the heap key
  ends with the candidate's index, which is exactly the order the scan's
  strict ``key < best_key`` comparison preserves.
* **The floor pass** — once the top pending bound is stale and equal to
  ``min_support``, every pending bound is, so one pass rescores them all.
  On a wide input that is most candidates: each covers a row or two, which
  the wide rules chosen first mostly cover.

Both selections rank by coverage (or gain) first and compute the rest of
the key — placeholders, length and the ``repr`` of the transformation, by
far the costliest part — only for candidates whose coverage reaches the top.

The plain set-based scan survives as the test oracle
``greedy_minimal_cover_reference`` in ``tests/oracles/cover.py`` — the
executable spec the property tests compare the CELF engine against, tie
for tie.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence

from repro.core.coverage import CoverageResult, mask_from_rows, rows_from_mask
from repro.core.transformation import Transformation

__all__ = [
    "cover_fraction",
    "covered_mask",
    "covered_rows",
    "greedy_cover_indices",
    "greedy_minimal_cover",
    "selection_key",
    "top_k_by_coverage",
    "top_k_indices",
]


def selection_key(transformation: Transformation) -> tuple[int, int, str]:
    """The gain-independent part of both selections' ranking key.

    Fewer placeholders, then fewer units (the paper's length criterion),
    then the rendering, which makes the order total.
    """
    return (transformation.num_placeholders, len(transformation), repr(transformation))


def top_k_indices(
    coverages: Sequence[int],
    k: int,
    key_of: Callable[[int], tuple[int, int, str]],
    *,
    min_coverage: int,
) -> list[int]:
    """The indices of the *k* best candidates, best first.

    Candidates rank by coverage, then by ``key_of(index)``, then by index.
    Only those covering at least *min_coverage* rows and reaching the k-th
    largest coverage are ranked, so ``key_of`` is called for those alone.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    threshold = min_coverage
    if len(coverages) > k:
        threshold = max(threshold, heapq.nlargest(k, coverages)[-1])
    ranked = [index for index, coverage in enumerate(coverages) if coverage >= threshold]
    # A stable sort of ascending indices: equal keys stay in index order.
    ranked.sort(key=lambda index: (-coverages[index], *key_of(index)))
    return ranked[:k]


def greedy_cover_indices(
    masks: Sequence[int],
    key_of: Callable[[int], tuple[int, int, str]],
    *,
    min_support: int,
) -> list[int]:
    """Greedy set cover over covered-row bitmasks; selected indices in order.

    Each step selects the candidate covering the most *not yet covered*
    rows, ties broken by ``key_of(index)``, then by index; a marginal gain
    below *min_support* (the support threshold for noisy data such as the
    open-data benchmark) is never selected.

    The CELF engine, identical to the plain scan (``tests/oracles/cover.py``)
    tie for tie.  Gain is submodular, so a stale bound is an upper bound and
    a *fresh* gain on top of the heap wins; a gain below ``min_support``
    never recovers, so its candidate leaves.  ``key_of`` costs far more than
    a gain, so candidates wait in a gain-only heap until their gain reaches
    the ranked heap's top, and only then get their key, once.  When that
    pending heap's top is stale at the floor, ``min_support``, every pending
    bound and the ranked top are at the floor, and one pass rescores every
    pending candidate, ranking those whose gain is still ``min_support``.
    The loop stops once every row an eligible candidate covers is covered.
    """
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")

    # Entries of both heaps end with (index, round): the index is unique per
    # entry, so the round is never compared, and equal keys pop in index
    # order — the reference scan's first-wins tie-breaking.
    # pending: (-gain, index, round), the round-0 bound being the coverage
    # ranked:  (-gain, placeholders, length, repr, index, round)
    pending: list[tuple[int, int, int]] = []
    ranked: list[tuple[int, int, int, str, int, int]] = []
    reachable = 0
    for index, mask in enumerate(masks):
        gain = mask.bit_count()
        if gain >= min_support:
            pending.append((-gain, index, 0))
            reachable |= mask
    heapq.heapify(pending)

    floor = -min_support
    covered = 0
    selection_round = 0
    selected: list[int] = []
    while covered != reachable:
        if pending and (not ranked or pending[0][0] <= ranked[0][0]):
            # A pending gain bound reaches the top: rank it once its gain is
            # fresh, else rescore it (dropping it when the support threshold
            # is out of reach), or rescore all of them at the floor.
            neg_gain, index, scored_round = pending[0]
            if scored_round == selection_round:
                heapq.heappop(pending)
                heapq.heappush(
                    ranked, (neg_gain, *key_of(index), index, selection_round)
                )
            elif neg_gain == floor:
                uncovered = ~covered
                for _, index, _ in pending:
                    if (masks[index] & uncovered).bit_count() >= min_support:
                        ranked.append((floor, *key_of(index), index, selection_round))
                pending.clear()
                heapq.heapify(ranked)
            else:
                heapq.heappop(pending)
                gain = (masks[index] & ~covered).bit_count()
                if gain >= min_support:
                    heapq.heappush(pending, (-gain, index, selection_round))
            continue
        if not ranked:
            break
        entry = heapq.heappop(ranked)
        if entry[5] != selection_round:
            # Stale upper bound: rescore against the current covered set and
            # push back (or drop when the support threshold is out of reach).
            gain = (masks[entry[4]] & ~covered).bit_count()
            if gain >= min_support:
                heapq.heappush(ranked, (-gain, *entry[1:5], selection_round))
            continue
        # Fresh bound on top of the ranked heap, above every pending bound:
        # every other candidate's true key is bounded by its (lazier) key, so
        # this is the reference scan's argmin — select it.
        covered |= masks[entry[4]]
        selected.append(entry[4])
        selection_round += 1
    return selected


def top_k_by_coverage(
    results: Sequence[CoverageResult], k: int = 1
) -> list[CoverageResult]:
    """The *k* results with the largest coverage, by :func:`top_k_indices`.

    Ties go to the most readable transformation (:func:`selection_key`),
    then to input order.
    """
    indices = top_k_indices(
        [result.coverage for result in results],
        k,
        lambda index: selection_key(results[index].transformation),
        min_coverage=0,
    )
    return [results[index] for index in indices]


def greedy_minimal_cover(
    results: Sequence[CoverageResult],
    *,
    min_support: int = 1,
) -> list[CoverageResult]:
    """The greedy cover of *results* in selection order, by
    :func:`greedy_cover_indices` over their covered-row bitmasks."""
    indices = greedy_cover_indices(
        [result.covered_mask for result in results],
        lambda index: selection_key(results[index].transformation),
        min_support=min_support,
    )
    return [results[index] for index in indices]


def covered_mask(results: Sequence[CoverageResult]) -> int:
    """Union of the covered-row bitmasks of *results*."""
    union = 0
    for result in results:
        union |= result.covered_mask
    return union


def covered_rows(results: Sequence[CoverageResult]) -> frozenset[int]:
    """Union of the covered-row sets of *results*."""
    return frozenset(rows_from_mask(covered_mask(results)))


def cover_fraction(results: Sequence[CoverageResult], num_pairs: int) -> float:
    """Fraction of the input covered by the union of *results*."""
    if num_pairs == 0:
        return 0.0
    return covered_mask(results).bit_count() / num_pairs


# Re-exported for callers that build masks by hand (tests, benchmarks).
__all__ += ["mask_from_rows", "rows_from_mask"]
