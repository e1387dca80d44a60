"""The end-to-end transformation-discovery engine (Section 4.1).

:class:`TransformationDiscovery` chains the pipeline stages —

1. (optional) sampling of the input pairs,
2. placeholder and skeleton construction per row (stage
   ``placeholder_generation``),
3. candidate-unit extraction, each unit interned once per run
   (``unit_extraction``),
4. transformation generation: each skeleton's Cartesian product expanded
   straight into the coverage trie, where a duplicate is a node that
   already has a terminal (``duplicate_removal``),
5. coverage computation over all input pairs: the trie is frozen and
   walked with the non-covering-unit cache, each generating row skipping
   the subtrees it owns, into one covered-row mask per candidate
   (``applying_transformations``; see :mod:`repro.core.coverage`),
6. maximum-coverage / greedy-minimal-cover selection on those masks
   (``cover_selection``; see :mod:`repro.core.cover`) —

and reports both the discovered transformations and the statistics (Table 4,
Figures 3–4) of the run.

Candidates stay unit tuples and masks until selection builds a
:class:`~repro.core.transformation.Transformation` for the few it ranks or
returns: about 150 of the 18,000 candidates of a 300-row wide fit.
"""

from __future__ import annotations

import gc
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from time import monotonic

from repro.core.config import DiscoveryConfig
from repro.core.cover import (
    cover_fraction,
    greedy_cover_indices,
    selection_key,
    top_k_indices,
)
from repro.core.coverage import CoverageComputer, CoverageResult, TrieBuilder
from repro.core.generation import (
    MAX_TRANSFORMATIONS_PER_SKELETON,
    TransformationGenerator,
)
from repro.core.pairs import RowPair, pairs_from_strings
from repro.core.skeletons import SkeletonBuilder
from repro.core.stats import DiscoveryStats
from repro.core.transformation import Transformation
from repro.utils.timing import StageTimer


@dataclass
class DiscoveryResult:
    """Everything a discovery run produced.

    Attributes
    ----------
    pairs:
        The full input pairs coverage is reported against (the pre-sampling
        input, so coverage fractions are comparable across configurations).
    top:
        The top-k transformations by individual coverage, best first.
    cover:
        The greedy minimal covering set, in selection order.
    stats:
        Counters and per-stage timings of the run.
    """

    pairs: list[RowPair]
    top: list[CoverageResult] = field(default_factory=list)
    cover: list[CoverageResult] = field(default_factory=list)
    stats: DiscoveryStats = field(default_factory=DiscoveryStats)

    @property
    def best(self) -> CoverageResult | None:
        """The single highest-coverage transformation (None when nothing found)."""
        return self.top[0] if self.top else None

    @property
    def num_candidate_pairs(self) -> int:
        """Number of candidate pairs coverage was computed over.

        This is the denominator of every coverage fraction in this result;
        thread it into :class:`~repro.join.joiner.TransformationJoiner` when
        applying a support threshold.
        """
        return len(self.pairs)

    @property
    def top_coverage(self) -> float:
        """Coverage fraction of the best single transformation ("Top Cov.")."""
        if not self.top or not self.pairs:
            return 0.0
        return self.top[0].coverage_fraction(len(self.pairs))

    @property
    def cover_coverage(self) -> float:
        """Coverage fraction of the covering set ("Coverage")."""
        return cover_fraction(self.cover, len(self.pairs))

    @property
    def num_transformations(self) -> int:
        """Size of the covering set ("#Trans.")."""
        return len(self.cover)

    @property
    def transformations(self) -> list[Transformation]:
        """The transformations of the covering set, in selection order."""
        return [result.transformation for result in self.cover]


class TransformationDiscovery:
    """Discover transformations that make (source, target) pairs equi-joinable.

    Example
    -------
    >>> from repro.core import TransformationDiscovery
    >>> engine = TransformationDiscovery()
    >>> result = engine.discover_from_strings([
    ...     ("Rafiei, Davood", "D Rafiei"),
    ...     ("Bowling, Michael", "M Bowling"),
    ... ])
    >>> result.best.transformation.apply("Nascimento, Mario")
    'M Nascimento'
    """

    def __init__(self, config: DiscoveryConfig | None = None) -> None:
        self._config = config or DiscoveryConfig()
        self._skeleton_builder = SkeletonBuilder(self._config)
        self._generator = TransformationGenerator(self._config)

    @property
    def config(self) -> DiscoveryConfig:
        """The configuration the engine was built with."""
        return self._config

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #
    def discover_from_strings(
        self, pairs: Sequence[tuple[str, str]]
    ) -> DiscoveryResult:
        """Convenience wrapper: discover from plain (source, target) tuples."""
        return self.discover(pairs_from_strings(pairs))

    def discover(self, pairs: Sequence[RowPair]) -> DiscoveryResult:
        """Run the full discovery pipeline on *pairs*.

        Automatic cyclic garbage collection is off for the duration of the
        call and re-enabled afterwards if it was on.  A run allocates
        hundreds of thousands of long-lived containers (candidates' unit
        tuples, trie nodes and edges), enough to trigger several
        full collections that find almost nothing: the run makes next to no
        cyclic garbage, and reference counting still frees the rest.  The
        switch is process-wide, so other threads run without automatic
        collection meanwhile.
        """
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._discover(pairs)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _discover(self, pairs: Sequence[RowPair]) -> DiscoveryResult:
        pairs = list(pairs)
        if self._config.case_insensitive:
            pairs = [
                RowPair(
                    source=pair.source.lower(),
                    target=pair.target.lower(),
                    source_row=pair.source_row,
                    target_row=pair.target_row,
                )
                for pair in pairs
            ]
        if not pairs:
            return DiscoveryResult(pairs=[])

        timer = StageTimer()
        stats = DiscoveryStats(num_pairs=len(pairs))
        # One monotonic deadline bounds the whole run; CLOCK_MONOTONIC is
        # system-wide, so the coverage stage can hand the same timestamp to
        # sharded worker processes.
        deadline = (
            monotonic() + self._config.time_budget_s
            if self._config.time_budget_s > 0
            else None
        )

        builder = self._generate(pairs, self._sample(len(pairs)), stats, timer, deadline)

        computer = CoverageComputer(
            pairs,
            use_unit_cache=self._config.use_unit_cache,
            stats=stats,
            num_workers=self._config.num_workers,
            min_rows_per_worker=self._config.min_rows_per_worker,
            task_timeout=self._config.task_timeout_s or None,
            shard_retries=self._config.shard_retries,
            serial_fallback=self._config.serial_fallback,
        )
        with timer.stage("applying_transformations"):
            if self._config.use_batched_coverage and self._config.use_unit_cache:
                masks = computer.coverage_of_trie(builder.freeze(), deadline=deadline)
            else:
                transformations = builder.transformations()
                results = computer.coverage_of_all(transformations, batched=False)
                masks = [result.covered_mask for result in results]
        if computer.budget_exhausted and not stats.budget_exhausted:
            stats.budget_exhausted = True
            stats.budget_stage = "applying_transformations"
            stats.rows_fully_processed = computer.rows_processed

        with timer.stage("cover_selection"):
            top, cover = self._select(builder, masks)

        stats.stage_seconds = timer.as_dict()
        return DiscoveryResult(pairs=pairs, top=top, cover=cover, stats=stats)

    # ------------------------------------------------------------------ #
    # Pipeline stages
    # ------------------------------------------------------------------ #
    def _select(
        self, builder: TrieBuilder, masks: list[int]
    ) -> tuple[list[CoverageResult], list[CoverageResult]]:
        """The top-k and the greedy cover of the builder's terminals, whose
        covered-row masks are *masks*.  A terminal becomes a result, once,
        only when a selection computes its key or returns it; one that
        covers no row is neither ranked nor selected."""
        made: dict[int, CoverageResult] = {}

        def result(index: int) -> CoverageResult:
            if index not in made:
                transformation = Transformation(builder.terminal_units[index])
                made[index] = CoverageResult(transformation, covered_mask=masks[index])
            return made[index]

        def key_of(index: int) -> tuple[int, int, str]:
            return selection_key(result(index).transformation)

        coverages = [mask.bit_count() for mask in masks]
        top = top_k_indices(coverages, self._config.top_k, key_of, min_coverage=1)
        cover = greedy_cover_indices(masks, key_of, min_support=self._config.min_support)
        return [result(index) for index in top], [result(index) for index in cover]

    def _sample(self, num_pairs: int) -> list[int]:
        """The rows candidate generation runs on, in generation order.

        All rows, unless the configuration asks for a sample: coverage is
        always computed over the full input; only the generation of
        candidate transformations is restricted to the sample
        (Section 5.3: a small sample is enough to discover any
        transformation with non-trivial coverage).
        """
        sample_size = self._config.sample_size
        if sample_size <= 0 or num_pairs <= sample_size:
            return list(range(num_pairs))
        rng = random.Random(self._config.sample_seed)
        return rng.sample(range(num_pairs), sample_size)

    def _generate(
        self,
        pairs: Sequence[RowPair],
        rows: Sequence[int],
        stats: DiscoveryStats,
        timer: StageTimer,
        deadline: float | None = None,
    ) -> TrieBuilder:
        """Generate the candidate transformations of ``pairs[row]`` for each
        of *rows*, into the coverage trie.

        Each row's skeletons are expanded into one :class:`TrieBuilder`
        with the row as owner, so duplicate removal (when enabled) happens
        as the trie grows.  ``deadline`` (a ``time.monotonic()`` timestamp)
        is the run's cooperative time budget: it is checked between rows,
        and rows past it are skipped — their transformations simply go
        ungenerated, which degrades coverage but never validity (every
        generated transformation is still exact).  The first row always
        runs, so even an expired budget yields candidates.  The cut is
        recorded in *stats* (``budget_exhausted`` / ``budget_stage`` /
        ``rows_fully_processed``).
        """
        builder = TrieBuilder()
        generated = 0
        dedup = self._config.use_duplicate_removal
        generator = self._generator

        for position, row in enumerate(rows):
            if deadline is not None and position and monotonic() >= deadline:
                stats.budget_exhausted = True
                stats.budget_stage = "skeleton_generation"
                stats.rows_fully_processed = position
                break
            pair = pairs[row]
            with timer.stage("placeholder_generation"):
                skeletons = self._skeleton_builder.build(pair.source, pair.target)
            stats.num_skeletons += len(skeletons)
            with timer.stage("unit_extraction"):
                unit_sets = [
                    generator.unit_sets(builder, pair.source, skeleton)
                    for skeleton in skeletons
                ]
            with timer.stage("duplicate_removal"):
                for sets in unit_sets:
                    generated += builder.expand(
                        sets, MAX_TRANSFORMATIONS_PER_SKELETON, row=row, dedup=dedup
                    )

        stats.generated_transformations = generated
        stats.unique_transformations = len(builder)
        return builder
