"""Selecting the final transformation set (Section 4.1.6).

Two problem variants:

* **Maximum coverage** — report the single transformation (or top-k) covering
  the most input rows.
* **Minimal cover** — find a small set of transformations that together cover
  every coverable row.  Exact minimal cover is the NP-complete set-cover
  problem; the paper (and this module) uses the classic greedy algorithm with
  its ``H(n) <= ln(n) + 1`` approximation guarantee.

Two coverage-v3 accelerations apply here:

* **Bitset row sets** — covered-row sets are packed integer bitmasks
  (:attr:`~repro.core.coverage.CoverageResult.covered_mask`), so the greedy
  marginal gain is one ``(mask & ~covered).bit_count()`` over machine words
  instead of a Python-level set difference, and unions are single ``|`` ops.
* **CELF lazy-greedy selection** — coverage gain is submodular (covering
  more rows first can never *increase* another transformation's marginal
  gain), so :func:`greedy_minimal_cover` keeps candidates in a max-heap of
  stale upper bounds and re-evaluates only those whose bound still wins,
  instead of rescoring every candidate every round (Leskovec et al.'s
  lazy-greedy / CELF).  Tie-breaking is byte-identical to the plain greedy
  scan: the heap key ends with the candidate's input index, which is exactly
  the order the scan's strict ``key < best_key`` comparison preserves.

Both selections rank by coverage (or gain) first and compute the rest of
the key — placeholders, length and the ``repr`` of the transformation, by
far the costliest part — only for candidates whose coverage reaches the top.
On a wide input most candidates cover a single row and never get there.

The plain set-based scan survives as the test oracle
``greedy_minimal_cover_reference`` in ``tests/oracles/cover.py`` — the
executable spec the property tests compare the CELF engine against, tie
for tie.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from repro.core.coverage import (
    CoverageResult,
    mask_from_rows,
    rows_from_mask,
)

__all__ = [
    "cover_fraction",
    "covered_mask",
    "covered_rows",
    "greedy_minimal_cover",
    "top_k_by_coverage",
]


def top_k_by_coverage(
    results: Sequence[CoverageResult], k: int = 1
) -> list[CoverageResult]:
    """Return the *k* transformations with the largest coverage.

    Ties are broken in favour of shorter transformations (fewer placeholders,
    then fewer units overall) so the reported transformation is the most
    readable among equally-covering ones, per the paper's length criterion.
    ``coverage`` is a bitmask popcount, so ranking never materializes row
    sets.  Only the results that reach the k-th largest coverage are ranked
    in full; the stable sort keeps them in input order on equal keys,
    exactly as a sort of every result would.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    coverages = [result.coverage for result in results]
    if len(coverages) > k:
        threshold = heapq.nlargest(k, coverages)[-1]
        results = [
            result
            for result, coverage in zip(results, coverages)
            if coverage >= threshold
        ]
    return sorted(results, key=lambda r: (-r.coverage, *_selection_key(r)))[:k]


def _selection_key(result: CoverageResult) -> tuple[int, int, str]:
    """The gain-independent part of both selections' tie-breaking key."""
    return (
        result.transformation.num_placeholders,
        len(result.transformation),
        repr(result.transformation),
    )


def greedy_minimal_cover(
    results: Sequence[CoverageResult],
    *,
    min_support: int = 1,
) -> list[CoverageResult]:
    """Greedy set cover over the transformations' covered-row bitmasks.

    At each step the transformation covering the most *not yet covered* rows
    is selected; transformations whose marginal gain falls below *min_support*
    are never selected (this implements the support threshold used for noisy
    data such as the open-data benchmark).

    This is the CELF lazy-greedy engine: a max-heap of stale gain upper
    bounds, re-evaluating only the candidates whose bound still tops the
    heap.  Selection order — including every tie — is identical to the
    plain greedy scan (``tests/oracles/cover.py``), which remains the
    executable spec.  Two facts make the laziness sound:

    * marginal gain is submodular, so a recomputed gain can only shrink —
      a stale bound is always an upper bound, and a candidate whose *fresh*
      gain tops the heap beats every other candidate's true gain;
    * once a candidate's fresh gain drops below ``min_support`` it can never
      recover, so it is dropped from the heap permanently (the reference
      scan keeps skipping it each round, with the same outcome).

    The tie-breakers cost far more than the gain — ``repr`` renders every
    unit — so candidates wait in a second heap keyed on the gain alone
    until their gain reaches the top of the ranked heap; only then is their
    full key computed, once.  Until then every ranked candidate beats them
    whatever their tie-breakers.  The loop stops as soon as every row an
    eligible candidate covers is covered, since every gain left is then 0.

    Returns the selected transformations in selection order.
    """
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")

    masks = [result.covered_mask for result in results]
    # Round-0 gain bounds: each candidate's whole coverage.
    gains = [mask.bit_count() for mask in masks]
    # Entries of both heaps end with (index, round): the index is unique per
    # entry, so the round is never compared, and equal keys pop in input
    # order — the reference scan's first-wins tie-breaking.
    # pending: (-gain, index, round)
    # ranked:  (-gain, placeholders, length, repr, index, round)
    pending: list[tuple[int, int, int]] = []
    ranked: list[tuple[int, int, int, str, int, int]] = []
    reachable = 0
    for index, gain in enumerate(gains):
        if gain >= min_support:
            pending.append((-gain, index, 0))
            reachable |= masks[index]
    heapq.heapify(pending)

    covered = 0
    selection_round = 0
    selected: list[CoverageResult] = []
    while covered != reachable:
        if pending and (not ranked or pending[0][0] <= ranked[0][0]):
            # A pending gain bound reaches the top: rescore it if stale
            # (dropping it when the support threshold is out of reach), rank
            # it once its gain is fresh.
            neg_gain, index, scored_round = heapq.heappop(pending)
            if scored_round != selection_round:
                gain = (masks[index] & ~covered).bit_count()
                if gain >= min_support:
                    heapq.heappush(pending, (-gain, index, selection_round))
                continue
            heapq.heappush(
                ranked,
                (neg_gain, *_selection_key(results[index]), index, selection_round),
            )
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
        selected.append(results[entry[4]])
        selection_round += 1
    return selected


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
