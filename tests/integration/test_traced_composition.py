"""``discover`` equals the composition of public calls perfbench traces.

perfbench's traced fit rebuilds discovery layer by layer:
``SkeletonBuilder.build``, then ``TransformationGenerator.from_row``, then
first-seen duplicate removal, then ``CoverageComputer.coverage_of_all`` over
the list, then the greedy cover.  Discovery instead generates straight into
the coverage trie, with owner rows the walk skips, and selects on the
walk's masks.  Both must agree on every transformation in order (the trie
builder's terminals), every covered-row mask, the top-k, the cover and
every counter.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.cover import greedy_minimal_cover, top_k_by_coverage
from repro.core.coverage import CoverageComputer
from repro.core.discovery import TransformationDiscovery
from repro.core.generation import TransformationGenerator
from repro.core.pairs import pairs_from_strings
from repro.core.skeletons import SkeletonBuilder
from repro.core.stats import DiscoveryStats
from repro.datasets.synthetic import SyntheticConfig, generate_table_pair
from repro.matching.row_matcher import MatchingConfig, NGramRowMatcher


def traced_composition(pairs, config):
    """The composition of perfbench's traced fit, without the spans."""
    stats = DiscoveryStats(num_pairs=len(pairs))
    sample = pairs
    if 0 < config.sample_size < len(pairs):
        sample = random.Random(config.sample_seed).sample(pairs, config.sample_size)
    builder = SkeletonBuilder(config)
    generator = TransformationGenerator(config)
    unique: dict = {}
    for pair in sample:
        skeletons = builder.build(pair.source, pair.target)
        for transformation in generator.from_row(pair.source, skeletons):
            stats.generated_transformations += 1
            unique.setdefault(transformation, None)
    transformations = list(unique)
    stats.unique_transformations = len(transformations)
    results = CoverageComputer(pairs, stats=stats, num_workers=1).coverage_of_all(
        transformations
    )
    return results, stats


def wide_pairs():
    """300 rows of length 20-35, as perfbench's fit-wide workload."""
    pair, _ = generate_table_pair(
        SyntheticConfig(num_rows=300, min_length=20, max_length=35, seed=1)
    )
    return pairs_from_strings(pair.golden_string_pairs())


def matched_pairs():
    """1,000 rows matched by the n-gram matcher: 1,007 candidate pairs."""
    pair, _ = generate_table_pair(
        SyntheticConfig(num_rows=1000, min_length=28, max_length=28, seed=1000)
    )
    return NGramRowMatcher(MatchingConfig()).match_values(
        list(pair.source["value"]), list(pair.target["value"])
    )


def signature(results):
    return [(result.transformation, result.covered_mask) for result in results]


@pytest.mark.parametrize(
    "make_pairs, sample_size",
    [
        pytest.param(wide_pairs, 0, id="wide-300"),
        pytest.param(matched_pairs, 200, id="matched-1000-sampled"),
    ],
)
def test_discover_equals_the_traced_composition(monkeypatch, make_pairs, sample_size):
    pairs = make_pairs()
    config = DiscoveryConfig(num_workers=1, sample_size=sample_size)
    builders, walked = [], []
    generate = TransformationDiscovery._generate
    coverage_of_trie = CoverageComputer.coverage_of_trie

    def recording_generate(self, *args, **kwargs):
        builder = generate(self, *args, **kwargs)
        builders.append(builder)
        return builder

    def recording_walk(self, *args, **kwargs):
        masks = coverage_of_trie(self, *args, **kwargs)
        walked.append(masks)
        return masks

    monkeypatch.setattr(TransformationDiscovery, "_generate", recording_generate)
    monkeypatch.setattr(CoverageComputer, "coverage_of_trie", recording_walk)
    result = TransformationDiscovery(config).discover(pairs)
    monkeypatch.undo()

    results, stats = traced_composition(pairs, config)
    assert len(builders) == len(walked) == 1
    transformations = builders[0].transformations()
    assert len(walked[0]) == len(transformations)
    assert list(zip(transformations, walked[0])) == signature(results)
    covering = [r for r in results if r.coverage > 0]
    assert signature(result.top) == signature(top_k_by_coverage(covering, config.top_k))
    assert signature(result.cover) == signature(
        greedy_minimal_cover(covering, min_support=config.min_support)
    )
    for counter in (
        "generated_transformations",
        "unique_transformations",
        "cache_hits",
        "cache_misses",
        "applications",
    ):
        assert getattr(result.stats, counter) == getattr(stats, counter), counter
    assert result.stats.unique_transformations > 10_000
