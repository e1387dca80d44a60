"""Row matchers: produce candidate joinable (source, target) row pairs.

:class:`NGramRowMatcher` implements Algorithm 1 of the paper: for every
source row and every n-gram size in ``[n0, nmax]`` it selects the n-gram with
the highest Rscore as the representative n-gram of that size, and every
target row containing a representative n-gram becomes a candidate pair.

The implementation is the packed fast path: one
:class:`~repro.matching.index.InvertedIndex` build over the target column
(sorted-array postings plus an O(1) row-frequency table), representative
n-grams computed per source row at build time via
:meth:`~repro.matching.index.InvertedIndex.representatives`, and candidate
enumeration by scanning the representatives' posting arrays in order — no
per-row re-tokenisation, no sorting, no posting-set copies.  With the
default configuration it returns bit-identical pairs (same pairs, same
order) to the seed implementation preserved as the test oracle
``tests/oracles/matching.py``; enabling the
opt-in ``stop_gram_cap`` trades some candidate recall (pairs reachable only
through a stop-gram representative) for bounded posting scans.

:class:`GoldenRowMatcher` replays a known ground-truth matching, which the
experiments use as the "golden" panel of Tables 2 and 4.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.pairs import RowPair
from repro.matching.index import InvertedIndex
from repro.matching.tokenize import TOKENIZERS
from repro.parallel.executor import check_execution_settings, env_default_workers
from repro.table.table import Table

#: Matching engines :func:`create_row_matcher` can build: "ngram" is
#: Algorithm 1's representative-n-gram matcher, "setsim" the prefix-filtered
#: set-similarity matcher of :mod:`repro.matching.setsim`.
MATCHER_ENGINES: tuple[str, ...] = ("ngram", "setsim")

#: Similarity measures the setsim engine supports.  jaccard and cosine take
#: a threshold in (0, 1]; overlap takes an absolute token-count >= 1.
SETSIM_SIMILARITIES: tuple[str, ...] = ("jaccard", "cosine", "overlap")


def env_default_engine() -> str:
    """The default matching engine: ``REPRO_MATCHER`` or ``"ngram"``."""
    return os.environ.get("REPRO_MATCHER", "").strip().lower() or "ngram"


@dataclass(frozen=True)
class MatchingConfig:
    """Parameters of the row matchers (both engines).

    The defaults follow Section 6.2 of the paper: representative n-grams of
    sizes 4 through 20, lower-cased comparison.

    ``stop_gram_cap`` stays 0 (exact Algorithm 1) by default: the calibration
    sweep in ``benchmarks/bench_stop_gram_cap.py`` measures the
    recall/runtime trade-off of enabling it.

    ``num_workers`` shards source rows of the setsim engine across worker
    processes (1 = serial, 0 = all cores; the default honours
    ``REPRO_NUM_WORKERS``); pairs are identical to the serial matcher.  The
    n-gram engine runs serially at any value: sharding it lost to serial on
    two cores (see the README's *Process sharding*).

    ``min_rows_per_worker`` is the small-input fast path: when the source
    rows per worker fall below it (or the host has a single core), the pool
    is skipped and the serial path runs — identical pairs, none of the fork
    cost.  ``None`` reads ``REPRO_MIN_ROWS_PER_WORKER`` (default
    :data:`~repro.parallel.executor.DEFAULT_MIN_ITEMS_PER_WORKER`); 0
    disables the tuning.

    ``task_timeout_s`` / ``shard_retries`` / ``serial_fallback`` configure
    the sharded setsim path's fault tolerance (submission-time deadline per
    map, pool retries per failed shard, and the serial inline fallback that
    keeps a flaky pool's results byte-identical); see
    :func:`~repro.parallel.executor.map_sharded`.  ``task_timeout_s``
    0 means unbounded.

    ``engine`` selects the candidate-generation regime
    (:func:`create_row_matcher` resolves it): ``"ngram"`` is Algorithm 1's
    representative n-grams, ``"setsim"`` the prefix-filtered set-similarity
    matcher of :mod:`repro.matching.setsim`.  The default honours
    ``REPRO_MATCHER``.  The ``setsim_*`` fields parameterize the setsim
    engine only: the similarity measure and its threshold (jaccard/cosine in
    (0, 1], overlap an absolute token count >= 1), and the tokenization
    ("whitespace" for token-rich strings, "qgram" for short keys, with
    ``setsim_qgram`` the q).  Both engines share ``lowercase``.
    """

    min_ngram: int = 4
    max_ngram: int = 20
    lowercase: bool = True
    max_candidates_per_row: int = 0  # 0 = unlimited (many-to-many joins)
    stop_gram_cap: int = 0  # 0 = no stop-gram pruning (exact Algorithm 1)
    engine: str = field(default_factory=env_default_engine)
    setsim_similarity: str = "jaccard"
    setsim_threshold: float = 0.7
    setsim_tokenizer: str = "whitespace"
    setsim_qgram: int = 4
    num_workers: int = field(default_factory=env_default_workers)
    min_rows_per_worker: int | None = None
    task_timeout_s: float = 0.0
    shard_retries: int = 2
    serial_fallback: bool = True

    def __post_init__(self) -> None:
        if self.min_ngram <= 0:
            raise ValueError(f"min_ngram must be positive, got {self.min_ngram}")
        if self.max_ngram < self.min_ngram:
            raise ValueError(
                f"max_ngram ({self.max_ngram}) must be >= min_ngram ({self.min_ngram})"
            )
        if self.max_candidates_per_row < 0:
            raise ValueError(
                "max_candidates_per_row must be >= 0, got "
                f"{self.max_candidates_per_row}"
            )
        if self.stop_gram_cap < 0:
            raise ValueError(
                f"stop_gram_cap must be >= 0, got {self.stop_gram_cap}"
            )
        if self.engine not in MATCHER_ENGINES:
            raise ValueError(
                f"engine must be one of {list(MATCHER_ENGINES)}, got "
                f"{self.engine!r}"
            )
        if self.setsim_similarity not in SETSIM_SIMILARITIES:
            raise ValueError(
                "setsim_similarity must be one of "
                f"{list(SETSIM_SIMILARITIES)}, got {self.setsim_similarity!r}"
            )
        if self.setsim_similarity == "overlap":
            if self.setsim_threshold < 1:
                raise ValueError(
                    "setsim_threshold is an absolute token count for the "
                    f"overlap measure and must be >= 1, got "
                    f"{self.setsim_threshold}"
                )
        elif not 0.0 < self.setsim_threshold <= 1.0:
            raise ValueError(
                f"setsim_threshold must be in (0, 1] for "
                f"{self.setsim_similarity}, got {self.setsim_threshold}"
            )
        if self.setsim_tokenizer not in TOKENIZERS:
            raise ValueError(
                f"setsim_tokenizer must be one of {list(TOKENIZERS)}, got "
                f"{self.setsim_tokenizer!r}"
            )
        if self.setsim_qgram <= 0:
            raise ValueError(
                f"setsim_qgram must be positive, got {self.setsim_qgram}"
            )
        check_execution_settings(
            num_workers=self.num_workers,
            min_rows_per_worker=self.min_rows_per_worker,
            task_timeout_s=self.task_timeout_s,
            shard_retries=self.shard_retries,
        )


def emit_candidate_pairs(
    source_values: Sequence[str],
    target_values: Sequence[str],
    target_index: InvertedIndex,
    representatives: Sequence[Sequence[str]],
    max_candidates_per_row: int,
) -> list[RowPair]:
    """Emit candidate pairs by scanning the representatives' posting arrays.

    The emission loop of the packed matcher.  *representatives* is aligned
    with *source_values*.
    """
    pairs: list[RowPair] = []
    append_pair = pairs.append
    cap = max_candidates_per_row
    for source_row, source_text in enumerate(source_values):
        # A source row can never repeat a candidate (representatives'
        # postings are deduplicated below), so no (source, target) pair
        # can occur twice — candidate dedup per row is all that's needed.
        seen: set[int] = set()
        seen_add = seen.add
        emitted = 0
        for representative in representatives[source_row]:
            if cap and emitted >= cap:
                # The reference truncates the candidate list to its first
                # `cap` entries; later candidates can be skipped entirely.
                break
            for target_row in target_index.rows_containing(representative):
                if target_row in seen:
                    continue
                seen_add(target_row)
                if cap and emitted >= cap:
                    break
                emitted += 1
                append_pair(
                    RowPair(
                        source=source_text,
                        target=target_values[target_row],
                        source_row=source_row,
                        target_row=target_row,
                    )
                )
    return pairs


class RowMatcher(ABC):
    """Interface of all row matchers."""

    @abstractmethod
    def match(
        self,
        source: Table,
        target: Table,
        *,
        source_column: str,
        target_column: str,
    ) -> list[RowPair]:
        """Return candidate joinable row pairs between the two columns."""


class NGramRowMatcher(RowMatcher):
    """Algorithm 1: representative-n-gram candidate pair detection."""

    def __init__(self, config: MatchingConfig | None = None) -> None:
        self._config = config or MatchingConfig()

    @property
    def config(self) -> MatchingConfig:
        """The matcher configuration."""
        return self._config

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def match(
        self,
        source: Table,
        target: Table,
        *,
        source_column: str,
        target_column: str,
    ) -> list[RowPair]:
        source_values = list(source[source_column])
        target_values = list(target[target_column])
        return self.match_values(source_values, target_values)

    def match_values(
        self,
        source_values: Sequence[str],
        target_values: Sequence[str],
    ) -> list[RowPair]:
        """Match plain value lists (row ids are positions in the lists).

        The candidates-by-merge fast path: build the packed target index
        once, compute every source row's representative n-grams in a fused
        build pass, then emit candidates by scanning the representatives'
        sorted posting arrays (size-major, ascending row id — the exact
        order of the reference implementation).  Serial at any
        ``num_workers``.
        """
        config = self._config
        source_values = list(source_values)
        target_values = list(target_values)
        target_index = InvertedIndex.build(
            target_values,
            min_size=config.min_ngram,
            max_size=config.max_ngram,
            lowercase=config.lowercase,
            stop_gram_cap=config.stop_gram_cap,
        )
        representatives = target_index.representatives(source_values)
        return emit_candidate_pairs(
            source_values,
            target_values,
            target_index,
            representatives,
            config.max_candidates_per_row,
        )


def create_row_matcher(config: MatchingConfig | None = None) -> RowMatcher:
    """The engine-selected row matcher of *config*.

    ``config.engine`` picks the candidate-generation regime: ``"ngram"``
    builds the packed :class:`NGramRowMatcher` (Algorithm 1), ``"setsim"``
    the prefix-filtered
    :class:`~repro.matching.setsim.SetSimRowMatcher`.  With no config the
    default engine is read from ``REPRO_MATCHER`` (falling back to
    ``"ngram"``), which is how the CLI and :class:`~repro.join.pipeline.
    JoinPipeline` make the engine selectable without code changes.
    """
    config = config or MatchingConfig()
    if config.engine == "setsim":
        # Imported lazily: the ngram path must not pay for (or depend on)
        # the setsim engine's modules.
        from repro.matching.setsim import SetSimRowMatcher

        return SetSimRowMatcher(config)
    return NGramRowMatcher(config)


class GoldenRowMatcher(RowMatcher):
    """Replay a known ground-truth matching (the "golden" panels of the paper)."""

    def __init__(self, golden_pairs: Sequence[tuple[int, int]]) -> None:
        self._golden_pairs = list(golden_pairs)

    def match(
        self,
        source: Table,
        target: Table,
        *,
        source_column: str,
        target_column: str,
    ) -> list[RowPair]:
        source_values = source[source_column]
        target_values = target[target_column]
        pairs: list[RowPair] = []
        for source_row, target_row in self._golden_pairs:
            if not 0 <= source_row < len(source_values):
                raise IndexError(
                    f"golden pair source row {source_row} out of range "
                    f"[0, {len(source_values)})"
                )
            if not 0 <= target_row < len(target_values):
                raise IndexError(
                    f"golden pair target row {target_row} out of range "
                    f"[0, {len(target_values)})"
                )
            pairs.append(
                RowPair(
                    source=source_values[source_row],
                    target=target_values[target_row],
                    source_row=source_row,
                    target_row=target_row,
                )
            )
        return pairs
