"""Configuration of the transformation-discovery engine.

The defaults follow the experimental setup of Section 6.2 of the paper:

* at most 3 placeholders per transformation (4 for the spreadsheet dataset),
* ``TwoCharSplitSubstr`` disabled (the paper excludes it "to better manage the
  runtime ... this did not have much impact on our results"),
* no minimum support unless the dataset is noisy (the open-data experiments
  use 1 % for discovery and 2 % for the end-to-end join),
* maximal-length placeholders split on whitespace/punctuation separators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.units import UNIT_NAMES
from repro.parallel.executor import check_execution_settings, env_default_workers


@dataclass(frozen=True)
class DiscoveryConfig:
    """Tunable parameters of :class:`~repro.core.discovery.TransformationDiscovery`.

    Parameters
    ----------
    max_placeholders:
        Maximum number of placeholders per transformation skeleton.  Skeletons
        with more placeholders are discarded; this bounds both transformation
        length and the size of the Cartesian product of candidate units.
    min_placeholder_length:
        Minimum length (characters) of a block of target text considered a
        placeholder.  Shorter common blocks are treated as literals.
    enabled_units:
        Names of the transformation-unit classes the generator may emit.
    split_placeholders_on_separators:
        When True (the paper's approach), every maximal-length placeholder is
        additionally split on whitespace/punctuation and the resulting
        sub-placeholders generate an extra skeleton, which recovers coverage
        lost to over-long placeholders (Lemma 4, case 1).
    include_literal_only_skeleton:
        When True, the all-literal skeleton ``<Literal(target)>`` is generated
        for every row.  It guarantees a (useless but valid) cover exists and
        matches the paper's skeleton example.
    max_matches_per_placeholder:
        Cap on how many distinct source occurrences of a placeholder text are
        expanded into candidate units.
    min_support:
        Minimum number of covered rows for a transformation to be kept in the
        final cover (1 disables support filtering).  The open-data experiments
        use a relative threshold; :meth:`open_data` sets 1 % of the sample.
    sample_size:
        When positive and the input has more pairs than this, discovery runs
        on a deterministic random sample of this many pairs (Section 5.3) and
        coverage is then evaluated on the full input.
    sample_seed:
        Seed of the sampling RNG, for reproducibility.
    use_duplicate_removal / use_unit_cache:
        Toggles for the two pruning strategies of Section 6.6, exposed so the
        ablation benchmarks can disable them.
    use_batched_coverage:
        When True (default) and the unit cache is enabled, coverage is
        computed by the trie-walking batch engine of
        :meth:`~repro.core.coverage.CoverageComputer.coverage_of_all`, which
        consults the non-covering-unit cache once per (unit, row) instead of
        once per (transformation, row).  Covered rows are identical; disable
        to time the seed's one-transformation-at-a-time path.
    num_workers:
        Worker processes for the coverage stage (1 = serial, 0 = all cores;
        the default honours the ``REPRO_NUM_WORKERS`` environment variable).
        Rows are sharded across a process pool sharing the frozen unit trie
        (:mod:`repro.parallel`); results are byte-identical to the serial
        engine.  Only the batched path shards — with batching (or the unit
        cache) disabled the knob has no effect.
    min_rows_per_worker:
        Small-input fast path for the sharded coverage stage: when the rows
        per worker fall below this threshold (or the host has a single
        core), the pool is skipped and the serial batched engine runs —
        identical results, none of the fork cost.  ``None`` (default) reads
        ``REPRO_MIN_ROWS_PER_WORKER``; 0 disables the tuning so pools fork
        for any input size.
    time_budget_s:
        Wall-clock budget in seconds for one discovery run (0 = unbounded).
        The budget is enforced cooperatively: skeleton generation checks it
        between rows and the batched coverage walk between row blocks, so
        an exhausted budget degrades the run to a best-so-far cover of the
        work finished in time instead of aborting.  The degradation is
        recorded — ``DiscoveryStats.budget_exhausted`` (and therefore the
        serialized model's provenance) is set, along with which stage hit
        the budget and how many rows were fully processed.
    task_timeout_s:
        Wall-clock bound in seconds on each sharded map of the coverage
        stage (0 = unbounded), enforced by the executor's submission-time
        deadline.  With ``serial_fallback`` enabled a timed-out shard is
        recomputed inline; otherwise it raises
        :class:`~repro.parallel.errors.ShardTimeoutError`.
    shard_retries:
        Pool retries per failed shard (crash or worker exception) before
        the executor falls back or raises.
    serial_fallback:
        Whether shards the pool cannot produce are recomputed serially
        inline (True, the default — a flaky pool degrades to slower, never
        to failed) or surface as typed
        :class:`~repro.parallel.errors.ShardError`\\ s.
    top_k:
        How many of the highest-coverage transformations to report.
    case_insensitive:
        When True, source and target texts are lower-cased before discovery
        (the paper's worked examples "ignore the capitalization in text").
        Transformations learned this way must be applied to lower-cased
        inputs; :class:`~repro.join.joiner.TransformationJoiner` accepts a
        matching ``case_insensitive`` flag.
    """

    max_placeholders: int = 3
    min_placeholder_length: int = 1
    enabled_units: tuple[str, ...] = (
        "Literal",
        "Substr",
        "Split",
        "SplitSubstr",
    )
    split_placeholders_on_separators: bool = True
    include_literal_only_skeleton: bool = True
    max_matches_per_placeholder: int = 3
    min_support: int = 1
    sample_size: int = 0
    sample_seed: int = 0
    use_duplicate_removal: bool = True
    use_unit_cache: bool = True
    use_batched_coverage: bool = True
    num_workers: int = field(default_factory=env_default_workers)
    min_rows_per_worker: int | None = None
    time_budget_s: float = 0.0
    task_timeout_s: float = 0.0
    shard_retries: int = 2
    serial_fallback: bool = True
    top_k: int = 5
    case_insensitive: bool = False
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.max_placeholders < 1:
            raise ValueError(
                f"max_placeholders must be >= 1, got {self.max_placeholders}"
            )
        if self.min_placeholder_length < 1:
            raise ValueError(
                "min_placeholder_length must be >= 1, got "
                f"{self.min_placeholder_length}"
            )
        if self.max_matches_per_placeholder < 1:
            raise ValueError(
                "max_matches_per_placeholder must be >= 1, got "
                f"{self.max_matches_per_placeholder}"
            )
        if self.min_support < 1:
            raise ValueError(f"min_support must be >= 1, got {self.min_support}")
        if self.sample_size < 0:
            raise ValueError(f"sample_size must be >= 0, got {self.sample_size}")
        check_execution_settings(
            num_workers=self.num_workers,
            min_rows_per_worker=self.min_rows_per_worker,
            task_timeout_s=self.task_timeout_s,
            shard_retries=self.shard_retries,
        )
        if self.time_budget_s < 0:
            raise ValueError(
                f"time_budget_s must be >= 0, got {self.time_budget_s}"
            )
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        unknown = [name for name in self.enabled_units if name not in UNIT_NAMES]
        if unknown:
            raise ValueError(
                f"unknown transformation units {unknown}; valid names: {UNIT_NAMES}"
            )
        if "Literal" not in self.enabled_units:
            raise ValueError("the Literal unit cannot be disabled")

    # ------------------------------------------------------------------ #
    # Convenience constructors matching the paper's experimental setups
    # ------------------------------------------------------------------ #
    @classmethod
    def paper_default(cls) -> "DiscoveryConfig":
        """Configuration used for web tables, open data and synthetic data."""
        return cls(max_placeholders=3)

    @classmethod
    def spreadsheet(cls) -> "DiscoveryConfig":
        """Configuration used for the spreadsheet dataset (4 placeholders)."""
        return cls(max_placeholders=4)

    @classmethod
    def open_data(cls, num_pairs: int) -> "DiscoveryConfig":
        """Configuration used for the open-data dataset.

        Sampling down to 3,000 pairs and a 1 % relative support threshold, as
        in Section 6.4.
        """
        sample = min(3000, num_pairs)
        support = max(2, int(0.01 * min(sample, num_pairs)))
        return cls(max_placeholders=3, sample_size=sample, min_support=support)

    def replace(self, **changes) -> "DiscoveryConfig":
        """Return a copy with the given fields replaced."""
        import dataclasses

        return dataclasses.replace(self, **changes)
