"""Sharded/serial equivalence: process sharding must not change any result.

Sharded coverage re-runs the exact serial kernel over row shards through
:func:`repro.parallel.map_sharded`, so its outputs must be *byte-identical*
to the serial engine for every worker count:

* sharded coverage must reproduce the serial batched engine's covered rows
  **and** its cache statistics (every cache in the walk is per-row, so the
  hit/miss/application tallies are shard-invariant);
* the n-gram matcher is serial at every ``num_workers``: it must return the
  serial and reference matchers' pairs — same pairs, same order, including
  Rscore ties — and must never build a process pool;
* results must be cache-independent: re-running on a warm computer, or
  interleaving serial and sharded calls, changes nothing;
* the ``num_workers=0`` knob must resolve to ``os.cpu_count()``.

Worker counts {1, 2, 3} are exercised on randomized inputs (1 takes the
serial path — the degenerate case of the knob — while 2 and 3 fork real
pools for coverage), plus the spawn start method for the pickle-once
fallback.

Every sharded construction here disables the small-input fast path
(``min_rows_per_worker=0``): these inputs are tiny by design, and the tuning
would otherwise serialize them — correct, but then no pool would ever fork
and the equivalence under test would be vacuous.
"""

from __future__ import annotations

import os
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DiscoveryConfig
from repro.core.coverage import CoverageComputer
from repro.core.discovery import TransformationDiscovery
from repro.core.pairs import pairs_from_strings
from repro.core.transformation import Transformation
from repro.core.units import Literal, Split, SplitSubstr, Substr
from repro.datasets.synthetic import SyntheticConfig, generate_table_pair
from repro.matching.reference import ReferenceRowMatcher
from repro.matching.row_matcher import MatchingConfig, NGramRowMatcher
from repro.parallel.executor import ShardedExecutor, resolve_num_workers

WORKER_COUNTS = (1, 2, 3)

CELL = st.text(
    alphabet=string.ascii_lowercase + string.digits + " ,-.", max_size=14
)
TIGHT_CELL = st.text(alphabet="ab ", min_size=0, max_size=10)

UNITS = st.one_of(
    st.builds(Literal, st.text(alphabet="ab, ", min_size=0, max_size=3)),
    st.builds(
        Substr,
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=7, max_value=12),
    ),
    st.builds(Split, st.sampled_from([",", " ", "-"]), st.integers(1, 3)),
    st.builds(
        SplitSubstr,
        st.sampled_from([",", " "]),
        st.integers(1, 2),
        st.integers(0, 2),
        st.integers(3, 5),
    ),
)

TRANSFORMATIONS = st.lists(
    st.builds(Transformation, st.lists(UNITS, min_size=1, max_size=4)),
    min_size=0,
    max_size=15,
)

STRING_PAIRS = st.lists(st.tuples(CELL, CELL), min_size=0, max_size=10)

# Forking a pool per example makes examples ~10ms+, so these property tests
# run fewer examples than the serial equivalence suite; the deterministic
# dataset tests below cover volume.
POOL_SETTINGS = settings(max_examples=15, deadline=None)


def stats_tuple(computer: CoverageComputer) -> tuple[int, int, int]:
    return (
        computer.stats.cache_hits,
        computer.stats.cache_misses,
        computer.stats.applications,
    )


def assert_coverage_shards_match_serial(pairs, transformations, workers):
    serial = CoverageComputer(pairs, num_workers=1)
    sharded = CoverageComputer(pairs, num_workers=workers, min_rows_per_worker=0)
    serial_results = serial.coverage_of_all(transformations)
    sharded_results = sharded.coverage_of_all(transformations)
    assert sharded_results == serial_results
    # Every cache in the batched walk is per-row, so even the exact cache
    # statistics are shard-invariant.
    assert stats_tuple(sharded) == stats_tuple(serial)


def assert_match_at_workers_equals_serial(source, target, config, workers):
    serial = NGramRowMatcher(config).match_values(source, target)
    sharded_config = MatchingConfig(
        min_ngram=config.min_ngram,
        max_ngram=config.max_ngram,
        lowercase=config.lowercase,
        max_candidates_per_row=config.max_candidates_per_row,
        stop_gram_cap=config.stop_gram_cap,
        num_workers=workers,
        min_rows_per_worker=0,
    )
    sharded = NGramRowMatcher(sharded_config).match_values(source, target)
    assert sharded == serial
    reference = ReferenceRowMatcher(config).match_values(source, target)
    assert sharded == reference


class TestShardedCoverageEquivalence:
    @POOL_SETTINGS
    @given(
        raw_pairs=STRING_PAIRS,
        transformations=TRANSFORMATIONS,
        workers=st.sampled_from(WORKER_COUNTS),
    )
    def test_matches_serial_on_random_inputs(
        self, raw_pairs, transformations, workers
    ):
        assert_coverage_shards_match_serial(
            pairs_from_strings(raw_pairs), transformations, workers
        )

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2))
    def test_matches_serial_on_synthetic_discovery(self, seed):
        pair, _ = generate_table_pair(
            SyntheticConfig(num_rows=30, seed=seed), name="sharded-eq"
        )
        string_pairs = pair.golden_string_pairs()
        serial = TransformationDiscovery(
            DiscoveryConfig(sample_size=10, num_workers=1)
        ).discover_from_strings(string_pairs)
        for workers in WORKER_COUNTS:
            sharded = TransformationDiscovery(
                DiscoveryConfig(
                    sample_size=10, num_workers=workers, min_rows_per_worker=0
                )
            ).discover_from_strings(string_pairs)
            assert sharded.top == serial.top
            assert sharded.cover == serial.cover
            assert (
                sharded.stats.cache_hits,
                sharded.stats.cache_misses,
                sharded.stats.applications,
            ) == (
                serial.stats.cache_hits,
                serial.stats.cache_misses,
                serial.stats.applications,
            )

    @POOL_SETTINGS
    @given(transformations=TRANSFORMATIONS)
    def test_results_are_cache_independent(self, transformations):
        # A warm persistent cache must not change what a subsequent sharded
        # call returns, and sharded runs must be repeatable: workers always
        # start from fresh per-row caches.
        pairs = pairs_from_strings([("a,b", "b"), ("a b", "a"), ("ab", "ba")])
        expected = CoverageComputer(pairs, num_workers=1).coverage_of_all(
            transformations
        )
        warm = CoverageComputer(pairs, num_workers=2, min_rows_per_worker=0)
        # coverage_of runs serially and populates the computer's persistent
        # per-row non-covering-unit sets — the actual warm-cache scenario.
        assert [
            warm.coverage_of(transformation) for transformation in transformations
        ] == expected
        assert warm.coverage_of_all(transformations) == expected
        assert warm.coverage_of_all(transformations) == expected

    def test_spawn_fallback_matches_fork(self, monkeypatch):
        # The pickle-once fallback for platforms without fork must agree with
        # the serial engine (and therefore with the fork path) exactly.
        pair, _ = generate_table_pair(
            SyntheticConfig(num_rows=15, seed=1), name="spawn-eq"
        )
        pairs = pairs_from_strings(pair.golden_string_pairs())
        transformations = [
            Transformation((SplitSubstr(" ", 1, 0, 3),)),
            Transformation((Split(" ", 1),)),
            Transformation((Literal("x"),)),
        ]
        serial = CoverageComputer(pairs, num_workers=1)
        expected = [
            sorted(result.covered_rows)
            for result in serial.coverage_of_all(transformations)
        ]
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        spawned = CoverageComputer(pairs, num_workers=2, min_rows_per_worker=0)
        covered = [
            sorted(result.covered_rows)
            for result in spawned.coverage_of_all(transformations)
        ]
        assert covered == expected
        assert stats_tuple(spawned) == stats_tuple(serial)
        assert spawned.rows_processed == len(pairs)


class TestShardedMatchingEquivalence:
    @POOL_SETTINGS
    @given(
        source=st.lists(CELL, min_size=1, max_size=8),
        target=st.lists(CELL, min_size=1, max_size=8),
        workers=st.sampled_from(WORKER_COUNTS),
    )
    def test_matches_serial_on_random_inputs(self, source, target, workers):
        assert_match_at_workers_equals_serial(
            source, target, MatchingConfig(min_ngram=2, max_ngram=5), workers
        )

    @POOL_SETTINGS
    @given(
        source=st.lists(TIGHT_CELL, min_size=1, max_size=8),
        target=st.lists(TIGHT_CELL, min_size=1, max_size=8),
        workers=st.sampled_from((2, 3)),
    )
    def test_matches_serial_under_rscore_ties(self, source, target, workers):
        # A 3-symbol alphabet forces representative selection to be dominated
        # by tie-breaking, which must be identical across process boundaries
        # (per-process string-hash seeds change set iteration order).
        assert_match_at_workers_equals_serial(
            source, target, MatchingConfig(min_ngram=1, max_ngram=3), workers
        )

    @POOL_SETTINGS
    @given(
        source=st.lists(CELL, min_size=1, max_size=6),
        target=st.lists(CELL, min_size=1, max_size=6),
        cap=st.integers(min_value=1, max_value=3),
    )
    def test_matches_serial_with_candidate_cap(self, source, target, cap):
        assert_match_at_workers_equals_serial(
            source,
            target,
            MatchingConfig(min_ngram=2, max_ngram=4, max_candidates_per_row=cap),
            2,
        )

    @settings(deadline=None, max_examples=4)
    @given(seed=st.integers(min_value=0, max_value=3))
    def test_matches_serial_on_synthetic_dataset(self, seed):
        pair, _ = generate_table_pair(
            SyntheticConfig(num_rows=50, seed=seed), name="sharded-match-eq"
        )
        source = list(pair.source["value"])
        target = list(pair.target["value"])
        for workers in WORKER_COUNTS:
            assert_match_at_workers_equals_serial(
                source, target, MatchingConfig(), workers
            )

    def test_workers_build_no_pool(self, monkeypatch):
        # The n-gram matcher is serial: a worker count, even with the
        # small-input threshold off, must not construct an executor.
        def refuse(*args, **kwargs):
            raise AssertionError("NGramRowMatcher constructed a ShardedExecutor")

        monkeypatch.setattr(ShardedExecutor, "__init__", refuse)
        pair, _ = generate_table_pair(
            SyntheticConfig(num_rows=30, seed=9), name="serial-match"
        )
        source = list(pair.source["value"])
        target = list(pair.target["value"])
        config = MatchingConfig(num_workers=2, min_rows_per_worker=0)
        pairs = NGramRowMatcher(config).match_values(source, target)
        assert pairs == ReferenceRowMatcher(config).match_values(source, target)


class TestWorkerKnobs:
    def test_zero_workers_resolves_to_cpu_count(self):
        assert resolve_num_workers(0) == (os.cpu_count() or 1)

    def test_zero_workers_runs_end_to_end(self):
        # num_workers=0 must not crash regardless of the host's core count
        # (on a 1-core host it resolves to the serial path).
        pairs = [("Rafiei, Davood", "D Rafiei"), ("Bowling, Michael", "M Bowling")]
        serial = TransformationDiscovery(
            DiscoveryConfig(num_workers=1)
        ).discover_from_strings(pairs)
        all_cores = TransformationDiscovery(
            DiscoveryConfig(num_workers=0)
        ).discover_from_strings(pairs)
        assert all_cores.top == serial.top
        assert all_cores.cover == serial.cover

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            DiscoveryConfig(num_workers=-1)
        with pytest.raises(ValueError):
            MatchingConfig(num_workers=-1)
        with pytest.raises(ValueError):
            CoverageComputer([], num_workers=-1).coverage_of_all([])

    def test_negative_min_rows_per_worker_rejected(self):
        # Only 0 turns the small-input fast path off; a negative threshold
        # is an error, not a second spelling of 0.
        with pytest.raises(ValueError):
            DiscoveryConfig(min_rows_per_worker=-5)
        with pytest.raises(ValueError):
            MatchingConfig(min_rows_per_worker=-5)
        assert DiscoveryConfig(min_rows_per_worker=0).min_rows_per_worker == 0
        assert MatchingConfig(min_rows_per_worker=0).min_rows_per_worker == 0

    def test_env_default_reaches_configs(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
        assert DiscoveryConfig().num_workers == 3
        assert MatchingConfig().num_workers == 3
        monkeypatch.delenv("REPRO_NUM_WORKERS")
        assert DiscoveryConfig().num_workers == 1
        assert MatchingConfig().num_workers == 1
