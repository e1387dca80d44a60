"""Integration tests: the full pipeline and baseline comparisons on benchmarks.

These tests run the same code paths as the benchmark harness, on scaled-down
dataset instances, and assert the *shape* of the paper's findings:

* our approach reaches (near-)full coverage with a small covering set,
* Auto-Join covers less with the same budget,
* the end-to-end transformation join beats the fuzzy-join baseline on F1,
* pruning statistics look like Table 4 (non-trivial duplicate and cache-hit
  ratios).
"""

from __future__ import annotations

import pytest
from oracles.join import join_values_reference

from repro.baselines.autojoin import AutoJoin, AutoJoinConfig
from repro.baselines.fuzzyjoin import AutoFuzzyJoin
from repro.core.config import DiscoveryConfig
from repro.core.discovery import TransformationDiscovery
from repro.datasets.open_data import generate_open_data
from repro.datasets.spreadsheet import generate_spreadsheet_dataset
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_synthetic_dataset,
    generate_table_pair,
)
from repro.datasets.web_tables import generate_web_tables_dataset
from repro.evaluation.join_metrics import evaluate_join
from repro.evaluation.matching_metrics import evaluate_matching
from repro.join.joiner import TransformationJoiner
from repro.join.pipeline import JoinPipeline
from repro.matching.row_matcher import GoldenRowMatcher, MatchingConfig, NGramRowMatcher
from repro.matching.setsim import SetSimRowMatcher
from repro.model import TransformationModel


@pytest.fixture(scope="module")
def small_web_dataset():
    return generate_web_tables_dataset(num_pairs=6, num_rows=30, seed=42)


@pytest.fixture(scope="module")
def small_spreadsheet_dataset():
    return generate_spreadsheet_dataset(num_pairs=8, num_rows=15, seed=42)


@pytest.fixture(scope="module")
def small_synthetic_dataset():
    return generate_synthetic_dataset(30, num_tables=2, seed=42)


class TestRowMatchingQuality:
    """Table 1 shape: decent P/R on web/spreadsheet/synthetic data."""

    def test_web_tables_row_matching(self, small_web_dataset):
        matcher = NGramRowMatcher()
        f1_scores = []
        for pair in small_web_dataset:
            pairs = matcher.match(
                pair.source,
                pair.target,
                source_column=pair.source_column,
                target_column=pair.target_column,
            )
            metrics = evaluate_matching(pairs, pair.golden_pairs)
            f1_scores.append(metrics.f1)
        assert sum(f1_scores) / len(f1_scores) > 0.5

    def test_synthetic_row_matching_high_precision(self, small_synthetic_dataset):
        matcher = NGramRowMatcher()
        for pair in small_synthetic_dataset:
            candidates = matcher.match(
                pair.source,
                pair.target,
                source_column=pair.source_column,
                target_column=pair.target_column,
            )
            metrics = evaluate_matching(candidates, pair.golden_pairs)
            assert metrics.precision > 0.8
            assert metrics.recall > 0.5

    def test_open_data_matching_has_low_precision_high_recall(self):
        pair = generate_open_data(
            num_source_rows=80, num_target_rows=200, seed=7
        )
        matcher = NGramRowMatcher(MatchingConfig(min_ngram=4, max_ngram=20))
        candidates = matcher.match(
            pair.source,
            pair.target,
            source_column=pair.source_column,
            target_column=pair.target_column,
        )
        metrics = evaluate_matching(candidates, pair.golden_pairs)
        # The address corpus floods the matcher with false candidates: recall
        # stays high while precision drops well below the other datasets
        # (Table 1 reports P = 0.01 at the full 3M-row scale; the effect is
        # milder on this scaled-down instance but the ordering holds).
        assert metrics.recall > 0.6
        assert metrics.precision < 0.9
        assert metrics.num_predicted > len(pair.golden_pairs)


class TestDiscoveryOnBenchmarks:
    """Table 2 shape: full coverage with a small covering set under golden matching."""

    def test_spreadsheet_full_coverage(self, small_spreadsheet_dataset):
        engine = TransformationDiscovery(DiscoveryConfig.spreadsheet())
        for pair in small_spreadsheet_dataset:
            result = engine.discover_from_strings(pair.golden_string_pairs())
            assert result.cover_coverage == pytest.approx(1.0)
            assert result.num_transformations <= 4

    def test_synthetic_full_coverage_with_three_rules(self, small_synthetic_dataset):
        engine = TransformationDiscovery()
        for pair in small_synthetic_dataset:
            result = engine.discover_from_strings(pair.golden_string_pairs())
            assert result.cover_coverage == pytest.approx(1.0)
            # The generator used 3 ground-truth transformations.
            assert result.num_transformations <= 6

    def test_web_tables_high_coverage_under_golden_matching(self, small_web_dataset):
        engine = TransformationDiscovery()
        coverages = []
        for pair in small_web_dataset:
            result = engine.discover_from_strings(pair.golden_string_pairs())
            coverages.append(result.cover_coverage)
        # Noise rows are intentionally uncoverable, so coverage is high but
        # not necessarily 1.0 on every table.
        assert sum(coverages) / len(coverages) > 0.85


class TestPruningStatistics:
    """Table 4 shape: duplicates exist and the unit cache absorbs most work."""

    def test_cache_hit_ratio_is_substantial(self, small_synthetic_dataset):
        engine = TransformationDiscovery()
        pair = small_synthetic_dataset[0]
        result = engine.discover_from_strings(pair.golden_string_pairs())
        assert result.stats.cache_hit_ratio > 0.5
        assert result.stats.generated_transformations > 0
        assert (
            result.stats.unique_transformations
            <= result.stats.generated_transformations
        )

    def test_stage_timings_recorded(self, small_synthetic_dataset):
        engine = TransformationDiscovery()
        result = engine.discover_from_strings(
            small_synthetic_dataset[0].golden_string_pairs()
        )
        stages = result.stats.stage_seconds
        for stage in (
            "placeholder_generation",
            "unit_extraction",
            "duplicate_removal",
            "applying_transformations",
        ):
            assert stage in stages


class TestBaselineComparison:
    """Table 2/3 shape: our approach covers at least as much as Auto-Join."""

    def test_our_cover_at_least_autojoin_on_multi_rule_input(self):
        # Three-letter names keep AutoJoin's exhaustive search short.
        pairs = [
            ("Raf, Dav", "D Raf"),
            ("Bow, Mic", "M Bow"),
            ("Gos, Sim", "S Gos"),
            ("Nas, Mar", "M Nas"),
            ("alp-bet", "bet/alp"),
            ("gam-del", "del/gam"),
            ("eps-zet", "zet/eps"),
            ("eta-the", "the/eta"),
        ]
        ours = TransformationDiscovery().discover_from_strings(pairs)
        autojoin = AutoJoin(
            AutoJoinConfig(num_subsets=6, subset_size=2, seed=0)
        ).discover_from_strings(pairs)
        assert ours.cover_coverage >= autojoin.cover_coverage
        assert ours.cover_coverage == 1.0

    def test_transformation_join_beats_fuzzy_join_on_spreadsheet_task(
        self, small_spreadsheet_dataset
    ):
        # Use a task family where similarity join struggles (short outputs).
        pair = small_spreadsheet_dataset[0]
        engine = TransformationDiscovery(DiscoveryConfig.spreadsheet())
        discovery = engine.discover_from_strings(pair.golden_string_pairs())
        joiner = TransformationJoiner(discovery.transformations)
        join_result = joiner.join(
            pair.source,
            pair.target,
            source_column=pair.source_column,
            target_column=pair.target_column,
        )
        ours = evaluate_join(join_result.as_set(), pair.golden_pairs)

        fuzzy = AutoFuzzyJoin().join(
            pair.source,
            pair.target,
            source_column=pair.source_column,
            target_column=pair.target_column,
        )
        theirs = evaluate_join(fuzzy.as_set(), pair.golden_pairs)
        assert ours.f1 >= theirs.f1


class TestEndToEndPipeline:
    def test_pipeline_on_web_table_pair(self, small_web_dataset):
        pair = small_web_dataset[0]
        pipeline = JoinPipeline(min_support=0.05)
        outcome = pipeline.run(
            pair.source,
            pair.target,
            source_column=pair.source_column,
            target_column=pair.target_column,
        )
        metrics = evaluate_join(outcome.joined_pairs, pair.golden_pairs)
        assert metrics.f1 > 0.5

    def test_pipeline_with_golden_matcher_is_at_least_as_good(self, small_web_dataset):
        pair = small_web_dataset[1]
        ngram_outcome = JoinPipeline(min_support=0.05).run(
            pair.source,
            pair.target,
            source_column=pair.source_column,
            target_column=pair.target_column,
        )
        golden_outcome = JoinPipeline(
            matcher=GoldenRowMatcher(pair.golden_pairs), min_support=0.05
        ).run(
            pair.source,
            pair.target,
            source_column=pair.source_column,
            target_column=pair.target_column,
        )
        ngram_f1 = evaluate_join(ngram_outcome.joined_pairs, pair.golden_pairs).f1
        golden_f1 = evaluate_join(golden_outcome.joined_pairs, pair.golden_pairs).f1
        assert golden_f1 >= ngram_f1 - 0.1

    def test_open_data_pipeline_with_sampling_and_support(self):
        pair = generate_open_data(num_source_rows=120, num_target_rows=300, seed=3)
        config = DiscoveryConfig.open_data(num_pairs=1000)
        pipeline = JoinPipeline(discovery_config=config, min_support=0.02)
        outcome = pipeline.run(
            pair.source,
            pair.target,
            source_column=pair.source_column,
            target_column=pair.target_column,
        )
        metrics = evaluate_join(outcome.joined_pairs, pair.golden_pairs)
        # Precision-oriented behaviour: what is joined is mostly right.
        assert metrics.precision > 0.6


class TestFitApplySessions:
    """The artifact-layer acceptance contract: train once, apply anywhere."""

    def test_fit_then_apply_equals_one_shot_run(self, small_web_dataset):
        pair = small_web_dataset[0]
        pipeline = JoinPipeline(min_support=0.05)
        columns = dict(
            source_column=pair.source_column, target_column=pair.target_column
        )
        one_shot = pipeline.run(pair.source, pair.target, **columns)
        model = pipeline.fit(pair.source, pair.target, **columns)
        applied = pipeline.apply(model, pair.source, pair.target, **columns)
        assert applied.join.pairs == one_shot.join.pairs
        assert applied.join.matched_by == one_shot.join.matched_by
        # The result reports the transformations the joiner actually ran.
        assert applied.applied_transformations
        assert set(applied.applied_transformations) <= set(model.transformations)

    def test_saved_model_applies_to_a_held_out_batch(self, tmp_path, monkeypatch):
        # Fit on one open-data batch, persist, reload, and join a *different*
        # batch (same fixed address-formatting rules, fresh addresses) — the
        # joined pairs must equal a one-shot run on the held-out batch
        # restricted to the model's transformations (the reference joiner
        # loop), serial and sharded.
        train = generate_open_data(num_source_rows=80, num_target_rows=200, seed=5)
        held_out = generate_open_data(
            num_source_rows=80, num_target_rows=200, seed=99
        )
        pipeline = JoinPipeline(min_support=0.05)
        model = pipeline.fit(
            train.source,
            train.target,
            source_column=train.source_column,
            target_column=train.target_column,
        )
        loaded = TransformationModel.load(model.save(tmp_path / "model.json"))
        assert loaded == model

        applied = pipeline.apply(
            loaded,
            held_out.source,
            held_out.target,
            source_column=held_out.source_column,
            target_column=held_out.target_column,
        )
        expected = join_values_reference(
            loaded.joiner(num_workers=1),
            list(held_out.source[held_out.source_column]),
            list(held_out.target[held_out.target_column]),
        )
        assert applied.join.pairs == expected.pairs

        monkeypatch.setenv("REPRO_MIN_ROWS_PER_WORKER", "0")
        sharded = loaded.joiner(num_workers=2).join(
            held_out.source,
            held_out.target,
            source_column=held_out.source_column,
            target_column=held_out.target_column,
        )
        assert sharded.pairs == expected.pairs
        # The model actually transfers: the held-out batch joins non-trivially
        # and mostly correctly.
        metrics = evaluate_join(applied.joined_pairs, held_out.golden_pairs)
        assert applied.join.num_pairs > 0
        assert metrics.precision > 0.6

    def test_apply_does_not_rerun_discovery(self, small_web_dataset):
        pair = small_web_dataset[0]
        pipeline = JoinPipeline(min_support=0.05)
        model = pipeline.fit(
            pair.source,
            pair.target,
            source_column=pair.source_column,
            target_column=pair.target_column,
        )
        loaded = TransformationModel.loads(model.dumps())

        class ExplodingDiscovery:
            def discover(self, pairs):  # pragma: no cover - defensive
                raise AssertionError("apply must not re-run discovery")

        pipeline._discovery = ExplodingDiscovery()
        applied = pipeline.apply(
            loaded,
            pair.source,
            pair.target,
            source_column=pair.source_column,
            target_column=pair.target_column,
        )
        assert applied.model is loaded


class TestSamplingScalesDiscovery:
    def test_sampled_discovery_matches_full_discovery_coverage(self):
        pairs = [
            (f"last{i:03d}, first{i:03d}", f"first{i:03d} last{i:03d}")
            for i in range(120)
        ]
        full = TransformationDiscovery().discover_from_strings(pairs)
        sampled = TransformationDiscovery(
            DiscoveryConfig(sample_size=20, sample_seed=1)
        ).discover_from_strings(pairs)
        assert sampled.top_coverage == full.top_coverage == 1.0
        assert (
            sampled.stats.generated_transformations
            < full.stats.generated_transformations
        )


class TestPinnedSyntheticRung:
    """Every stage's output on one 1,000-row synthetic pair, count for count.

    The pair is Figure 4a's 1,000-row point (rows of 28 characters, seed
    1,000).  Each test runs serially and sharded over two workers (no
    small-input threshold), and the counts change with neither the worker
    count nor the hash seed.  An empty stage output, a time-budget cut, a
    sharded merge that loses rows or a coverage prefilter that stops
    pruning (the cache and application counts move) each fail here.
    """

    @pytest.fixture(scope="class")
    def columns(self):
        pair, _ = generate_table_pair(
            SyntheticConfig(num_rows=1000, min_length=28, max_length=28, seed=1000)
        )
        return list(pair.source["value"]), list(pair.target["value"])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matching_discovery_and_join(self, columns, workers, monkeypatch):
        monkeypatch.setenv("REPRO_MIN_ROWS_PER_WORKER", "0")
        source, target = columns
        pairs = NGramRowMatcher(MatchingConfig()).match_values(source, target)
        result = TransformationDiscovery(
            DiscoveryConfig(
                sample_size=200, num_workers=workers, min_rows_per_worker=0
            )
        ).discover(pairs)
        stats = result.stats
        joined = TransformationJoiner(
            result.transformations, num_workers=workers
        ).join_values(source, target)
        assert len(pairs) == 1007
        assert stats.unique_transformations == 11_881
        assert stats.cache_hits == 10_283_281
        assert stats.cache_misses == 1_680_886
        assert stats.applications == 22_404
        assert [entry.coverage for entry in result.cover] == [
            335, 330, 330, 2, 2, 2, 2, 2
        ]
        assert stats.budget_exhausted is False
        assert joined.num_pairs == 1000

    @pytest.mark.parametrize("workers", [1, 2])
    def test_setsim_matching(self, columns, workers):
        source, target = columns
        matcher = SetSimRowMatcher(
            MatchingConfig(
                engine="setsim",
                setsim_similarity="jaccard",
                setsim_threshold=0.2,
                setsim_tokenizer="qgram",
                setsim_qgram=4,
                num_workers=workers,
                min_rows_per_worker=0,
            )
        )
        pairs, stats = matcher.match_values_with_stats(source, target)
        # Source-row order, as the serial engine emits the pairs.
        rows = [(pair.source_row, pair.target_row) for pair in pairs]
        assert rows == sorted(rows)
        assert len(pairs) == 665
        assert stats.candidates == 667
        assert stats.all_pairs == 1_000_000
