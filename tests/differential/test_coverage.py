"""Every coverage route against the oracle ``Transformation.covers``.

A route returns, per transformation, the rows it covers, the walk's
``(hits, misses, applications)`` and the rows it walked.  Every route
classifies each (transformation, walked row) exactly once, and the sharded
and blocked walks also count exactly what the serial batched walk counts:
every cache in the walk is per row.

The generation routes build the trie the way discovery does, from the
family's row pairs, with owner rows and seeds; their counts must equal the
walk of a trie built from the list of the same transformations, which has
neither.

The literal prefilter moves the counts but never a covered row, so the
anchor sets it checks have a test of their own: each edge's set against
the transformations below the edge and the sets checked above it.
"""

from __future__ import annotations

from time import monotonic
from unittest import mock

import pytest
from hypothesis import strategies as st

from differential.strategies import COVERAGE_FAMILIES, TRANSFORMATIONS, run_examples
from repro.core import coverage
from repro.core.config import DiscoveryConfig
from repro.core.coverage import CoverageComputer, rows_from_mask
from repro.core.discovery import TransformationDiscovery
from repro.core.stats import DiscoveryStats
from repro.core.transformation import Transformation
from repro.core.units import Literal
from repro.utils.timing import StageTimer


def computed(workers, *, batched=True, cache=True, warm=False, expired=False):
    def route(pairs, transformations):
        computer = CoverageComputer(
            pairs, use_unit_cache=cache, num_workers=workers, min_rows_per_worker=0
        )
        if warm:
            # Per-row unit caches the unbatched path leaves behind must not
            # change what the walk reports.
            computer.coverage_of_all(transformations, batched=False)
            computer.stats = DiscoveryStats()
        if expired:
            # coverage_of_all's trie, walked under a deadline that passed.
            masks = computer.coverage_of_trie(
                coverage._build_unit_trie(transformations), deadline=monotonic() - 1.0
            )
            covered = [rows_from_mask(mask) for mask in masks]
        else:
            results = computer.coverage_of_all(transformations, batched=batched)
            covered = [sorted(result.covered_rows) for result in results]
        rows = computer.rows_processed
        assert computer.budget_exhausted == (rows < len(pairs))
        stats = computer.stats
        counts = (stats.cache_hits, stats.cache_misses, stats.applications)
        return covered, counts, rows

    return route


def walked_in_blocks(block_rows, offset=7):
    def route(pairs, transformations):
        trie = coverage._build_unit_trie(transformations)
        with mock.patch.object(coverage, "_WALK_BLOCK_ROWS", block_rows):
            covered, *counts, rows = coverage._walk_trie_rows(pairs, offset, trie)
        local = [
            [row - offset for row in rows_from_mask(covered.get(index, 0))]
            for index in range(len(transformations))
        ]
        return local, tuple(counts), rows

    return route


def expired_deadline(pairs, transformations):
    # An expired deadline still walks the first block, and only that.
    with mock.patch.object(coverage, "_WALK_BLOCK_ROWS", 3):
        return computed(1, expired=True)(pairs, transformations)


BATCHED_SERIAL = computed(1)

# (workers, route, rows it walks (None = all), counts like the serial walk)
ROUTES = [
    pytest.param(1, computed(1, batched=False), None, False, id="unbatched"),
    pytest.param(1, computed(1, cache=False), None, False, id="unbatched-no-cache"),
    pytest.param(1, BATCHED_SERIAL, None, False, id="batched-serial"),
    pytest.param(2, computed(2, warm=True), None, True, id="sharded-2"),
    pytest.param(3, computed(3), None, True, id="sharded-3"),
    pytest.param(1, walked_in_blocks(1), None, True, id="blocks-1"),
    pytest.param(1, walked_in_blocks(3), None, True, id="blocks-3"),
    pytest.param(1, expired_deadline, 3, False, id="expired-deadline"),
]


@pytest.mark.parametrize("family", COVERAGE_FAMILIES)
@pytest.mark.parametrize("workers, route, cut, serial_counts", ROUTES)
def test_route_matches_covers(family, workers, route, cut, serial_counts):
    def check(case):
        pairs, transformations = case
        covered, counts, rows = route(pairs, transformations)
        # With no transformation there is no walk to cut.
        walked = len(pairs)
        if cut is not None and transformations:
            walked = min(cut, walked)
        assert rows == walked
        walked_pairs = pairs[:walked]
        assert covered == [
            [row for row, p in enumerate(walked_pairs) if t.covers(p.source, p.target)]
            for t in transformations
        ]
        assert counts[0] + counts[1] == len(transformations) * walked
        if serial_counts:
            assert counts == BATCHED_SERIAL(pairs, transformations)[1]

    run_examples(COVERAGE_FAMILIES[family], check, pooled=workers > 1)


def generated(workers, *, sample=False, dedup=True, expired=False):
    """Discovery's generation over every row (or a sample of them) into
    one trie, then the walk over every row; the family's own
    transformations are not used."""

    def route(pairs):
        engine = TransformationDiscovery(
            DiscoveryConfig(
                sample_size=max(1, len(pairs) // 2) if sample else 0,
                use_duplicate_removal=dedup,
            )
        )
        builder = engine._generate(
            pairs, engine._sample(len(pairs)), DiscoveryStats(), StageTimer()
        )
        transformations = builder.transformations()
        computer = CoverageComputer(
            pairs, num_workers=workers, min_rows_per_worker=0
        )
        deadline = monotonic() - 1.0 if expired else None
        masks = computer.coverage_of_trie(builder.freeze(), deadline=deadline)
        rows = computer.rows_processed
        assert computer.budget_exhausted == (rows < len(pairs))
        stats = computer.stats
        counts = (stats.cache_hits, stats.cache_misses, stats.applications)
        covered = [rows_from_mask(mask) for mask in masks]
        return transformations, covered, counts, rows

    return route


def generated_expired_deadline(pairs):
    # Every row generates and owns nodes; the walk only reaches the first
    # 3-row block, so no row past it may get its bit.
    with mock.patch.object(coverage, "_WALK_BLOCK_ROWS", 3):
        return generated(1, expired=True)(pairs)


# (workers, route, rows it walks (None = all))
GENERATION_ROUTES = [
    pytest.param(1, generated(1), None, id="generated-serial"),
    pytest.param(2, generated(2), None, id="generated-sharded-2"),
    pytest.param(1, generated(1, sample=True), None, id="generated-sampled"),
    pytest.param(1, generated(1, dedup=False), None, id="generated-no-dedup"),
    pytest.param(1, generated_expired_deadline, 3, id="generated-expired-deadline"),
]


@pytest.mark.parametrize("family", COVERAGE_FAMILIES)
@pytest.mark.parametrize("workers, route, cut", GENERATION_ROUTES)
def test_generation_route_matches_covers_and_the_list_walk(
    family, workers, route, cut
):
    def check(case):
        pairs, _ = case
        transformations, covered, counts, rows = route(pairs)
        walked = len(pairs)
        if cut is not None and transformations:
            walked = min(cut, walked)
        assert rows == walked
        walked_pairs = pairs[:walked]
        assert covered == [
            [row for row, p in enumerate(walked_pairs) if t.covers(p.source, p.target)]
            for t in transformations
        ]
        if transformations:
            trie = coverage._build_unit_trie(transformations)
            _, *list_counts, _ = coverage._walk_trie_rows(walked_pairs, 0, trie)
            assert counts == tuple(list_counts)

    run_examples(COVERAGE_FAMILIES[family], check, pooled=workers > 1)


def _terminals_below(edge):
    indices = list(edge[4])
    for child in edge[3]:
        indices += _terminals_below(child)
    return indices


def test_each_edge_checks_the_anchors_its_path_has_not_proved():
    # (a) Every anchor an edge checks is a literal of every transformation
    # below it, and (b) every anchor they all have is checked at the edge or
    # above it, so the walk prunes a row at an edge exactly when one of those
    # anchors is missing from its target.  Equal sets are one object.
    def check(transformations):
        trie = coverage._build_unit_trie(transformations)
        anchors = [
            {unit.anchor_text for unit in t.units} - {None} for t in transformations
        ]
        canonical = {}
        stack = [(edge, set()) for edge in trie.root_edges]
        while stack:
            edge, proved = stack.pop()
            assert canonical.setdefault(edge[6], edge[6]) is edge[6]
            checked = {trie.anchor_texts[text_id] for text_id in edge[6]}
            needed = set.intersection(*(anchors[i] for i in _terminals_below(edge)))
            assert checked <= needed
            assert needed <= proved | checked
            stack.extend((child, proved | checked) for child in edge[3])

    anchored = COVERAGE_FAMILIES["anchored"].map(lambda case: case[1])
    # One literal ending every transformation: anchors shared at every node.
    suffixed = st.builds(
        lambda ts, text: [Transformation(t.units + (Literal(text),)) for t in ts],
        TRANSFORMATIONS,
        st.text(alphabet="ab, ", min_size=1, max_size=3),
    )
    run_examples(
        st.one_of(TRANSFORMATIONS, anchored, suffixed), check, pooled=False
    )
