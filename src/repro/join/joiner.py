"""Applying a transformation set to equi-join two columns.

The experiments of Section 6.5 apply every transformation whose support (the
fraction of candidate pairs it covers) reaches a threshold to the source
column; a source row joins a target row whenever any applied transformation
maps the source cell to exactly the target cell.

The application itself is the batched apply engine of
:mod:`repro.model.apply`: the transformation set is compiled once into the
packed unit-prefix trie (shared unit prefixes evaluated once per row, one
``str.split`` per (delimiter, row)), walked serially or row-sharded across a
process pool (``num_workers``), and the transformed values are equi-joined
through the packed :class:`~repro.matching.index.ValueIndex`.  The walk
probes the target as it goes — it keeps only the outputs the index
contains — so the join loop sees only outputs that join.  The
one-transformation-at-a-time loop survives as
:meth:`TransformationJoiner.join_values_reference` — the executable spec the
equivalence tests compare the batched path against.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from time import monotonic

from repro.core.coverage import CoverageResult
from repro.core.transformation import Transformation
from repro.matching.index import ValueIndex
from repro.model.apply import TransformationApplier
from repro.parallel.errors import DeadlineExceededError
from repro.parallel.executor import check_execution_settings, env_default_workers
from repro.table.table import Table


def shared_values_key(
    values: tuple[str, ...], index: ValueIndex
) -> tuple[str, ...]:
    """*values*, the column *index* was built over, as a cache key in which
    equal values are one string object.

    The target index caches keep the key of every cached column alive, and
    a decoded column holds one string object per row even when values
    repeat.  Stored this way, a key costs 8 bytes per row plus one string
    per distinct value, and for a case-sensitive joiner those strings are
    the very objects *index* keeps as postings keys (both keep each
    value's first occurrence).  A column without repeats (as many distinct
    values in *index* as rows) is returned as is; any other costs one dict
    probe per value.
    """
    if index.num_values == len(values):
        return values
    first: dict[str, str] = {}
    return tuple([first.setdefault(value, value) for value in values])


@dataclass
class JoinResult:
    """Row pairs produced by a transformation join.

    ``pairs`` holds (source_row, target_row) index pairs;
    ``matched_by`` records which transformation produced each pair (the first
    transformation that matched, in the order they were applied).
    """

    pairs: list[tuple[int, int]] = field(default_factory=list)
    matched_by: dict[tuple[int, int], Transformation] = field(default_factory=dict)

    @property
    def num_pairs(self) -> int:
        """Number of joined row pairs."""
        return len(self.pairs)

    def as_set(self) -> set[tuple[int, int]]:
        """The joined pairs as a set (for metric computation)."""
        return set(self.pairs)


class TransformationJoiner:
    """Join two columns using a set of discovered transformations."""

    def __init__(
        self,
        transformations: Sequence[Transformation],
        *,
        min_support: float = 0.0,
        coverage_results: Sequence[CoverageResult] | None = None,
        coverage_counts: Sequence[int] | None = None,
        num_candidate_pairs: int | None = None,
        case_insensitive: bool = False,
        num_workers: int | None = None,
        min_rows_per_worker: int | None = None,
        task_timeout_s: float = 0.0,
        shard_retries: int = 2,
        serial_fallback: bool = True,
    ) -> None:
        """Create a joiner.

        Parameters
        ----------
        transformations:
            The transformations to apply, in priority order.
        min_support:
            Minimum coverage fraction a transformation must have had during
            discovery to be applied.  Requires *num_candidate_pairs* plus
            either *coverage_results* or *coverage_counts*; ignored when 0.
        coverage_results / num_candidate_pairs:
            The discovery-time coverage of each transformation and the number
            of candidate pairs it was computed over, used to evaluate the
            support threshold.  ``num_candidate_pairs`` must be the real pair
            count from discovery
            (:attr:`~repro.core.discovery.DiscoveryResult.num_candidate_pairs`);
            it cannot be inferred from the covered rows — trailing uncovered
            rows would silently loosen the threshold.
        coverage_counts:
            Alternative to *coverage_results* for callers that only have the
            covered-pair *counts* (a loaded
            :class:`~repro.model.artifact.TransformationModel` stores counts,
            not row sets).  Aligned positionally with *transformations*; the
            support fraction of ``transformations[i]`` is
            ``coverage_counts[i] / num_candidate_pairs``.
        case_insensitive:
            Lower-case source and target values before applying the
            transformations and comparing.  Use together with
            ``DiscoveryConfig(case_insensitive=True)`` so the transformations
            see the same normalization they were learned on.
        num_workers:
            Worker processes for the apply stage (1 = serial, 0 = all
            cores; ``None`` — the default — honours ``REPRO_NUM_WORKERS``).
            The resolution goes through
            :func:`~repro.parallel.executor.tuned_num_workers`, so small
            inputs run serially regardless; joined pairs are identical at
            any worker count.
        min_rows_per_worker:
            Small-input threshold of the apply fast path (``None`` reads
            ``REPRO_MIN_ROWS_PER_WORKER``; 0 disables the tuning).
        task_timeout_s / shard_retries / serial_fallback:
            Fault tolerance of the sharded apply stage: wall-clock bound per
            sharded map (0 = unbounded), pool retries per failed shard, and
            whether unproducible shards are recomputed serially inline
            (True, the default) instead of raising a typed
            :class:`~repro.parallel.errors.ShardError`; see
            :class:`~repro.parallel.executor.ShardedExecutor`.
        """
        self.check_settings(
            min_support=min_support,
            num_workers=num_workers,
            min_rows_per_worker=min_rows_per_worker,
            task_timeout_s=task_timeout_s,
            shard_retries=shard_retries,
        )
        if min_support > 0.0 and coverage_results is None and coverage_counts is None:
            raise ValueError(
                "min_support filtering requires the discovery coverage_results "
                "(or their coverage_counts)"
            )
        if coverage_counts is not None and len(coverage_counts) != len(
            transformations
        ):
            raise ValueError(
                f"coverage_counts must align with transformations: "
                f"{len(coverage_counts)} counts for {len(transformations)} "
                "transformations"
            )
        supported = self._supported_transformations(
            transformations,
            min_support,
            coverage_results,
            coverage_counts,
            num_candidate_pairs,
        )
        # Constant (literal-only) transformations map *every* source row to the
        # same value; applying one in a join would link every source row to any
        # target row carrying that value.  They can legitimately appear in a
        # covering set (they mop up noise rows during discovery) but are never
        # useful as join rules, so they are dropped here.
        applicable = [t for t in transformations if not t.is_constant]
        kept = (
            applicable
            if supported is None
            else [t for t in applicable if t in supported]
        )
        # Never filter everything away: fall back to the full set so the join
        # still produces output (matching the paper's behaviour of always
        # reporting a join).
        self._transformations = kept or applicable
        self._case_insensitive = case_insensitive
        self._num_workers = (
            env_default_workers() if num_workers is None else num_workers
        )
        self._min_rows_per_worker = min_rows_per_worker
        self._task_timeout_s = task_timeout_s
        self._shard_retries = shard_retries
        self._serial_fallback = serial_fallback
        self._applier: TransformationApplier | None = None
        # Most-recent target index, keyed by the raw target values as a
        # tuple (stored via shared_values_key, so repeats cost no extra
        # strings): the apply-many scenario usually joins many source
        # batches against one target column, and rebuilding the ValueIndex
        # per call was the known cold-path waste.  The lock also guards the
        # lazy applier build — joiners are shared across server threads.
        self._target_index_cache: tuple[tuple[str, ...], ValueIndex] | None = None
        self._lock = threading.Lock()

    @staticmethod
    def check_settings(
        *,
        min_support: float = 0.0,
        num_workers: int | None = None,
        min_rows_per_worker: int | None = None,
        task_timeout_s: float = 0.0,
        shard_retries: int = 2,
    ) -> None:
        """Raise ``ValueError`` when a joiner setting is out of range.

        The constructor runs these checks.  Objects that hold the settings
        and build joiners later (the pipeline, the serving registry) call it
        when they are built, so a bad value fails there and not at their
        first join.
        """
        if min_support < 0.0 or min_support > 1.0:
            raise ValueError(f"min_support must be in [0, 1], got {min_support}")
        check_execution_settings(
            num_workers=num_workers,
            min_rows_per_worker=min_rows_per_worker,
            task_timeout_s=task_timeout_s,
            shard_retries=shard_retries,
        )

    @staticmethod
    def _supported_transformations(
        transformations: Sequence[Transformation],
        min_support: float,
        coverage_results: Sequence[CoverageResult] | None,
        coverage_counts: Sequence[int] | None,
        num_candidate_pairs: int | None,
    ) -> set[Transformation] | None:
        """The transformations passing the support threshold (None = no filter).

        Support is ``coverage / num_candidate_pairs`` on the discovery-time
        counts — for :class:`CoverageResult` inputs the coverage is a
        popcount of the covered-row bitmask (:attr:`CoverageResult.coverage`),
        so filtering never materializes per-transformation row sets, however
        large discovery's input was.
        """
        if min_support <= 0.0 or (not coverage_results and not coverage_counts):
            return None
        if not num_candidate_pairs:
            # Guessing the pair count (e.g. as max covered row + 1) undercounts
            # whenever trailing rows are uncovered, which silently loosens the
            # support threshold — refuse instead.
            raise ValueError(
                "min_support filtering requires num_candidate_pairs (the real "
                "candidate-pair count from discovery, e.g. "
                "DiscoveryResult.num_candidate_pairs)"
            )
        if coverage_results is not None:
            return {
                result.transformation
                for result in coverage_results
                if result.coverage / num_candidate_pairs >= min_support
            }
        assert coverage_counts is not None
        return {
            transformation
            for transformation, count in zip(transformations, coverage_counts)
            if count / num_candidate_pairs >= min_support
        }

    @property
    def transformations(self) -> list[Transformation]:
        """The transformations that passed the support filter."""
        return list(self._transformations)

    @property
    def num_workers(self) -> int:
        """The apply-stage worker knob (1 = serial, 0 = all cores)."""
        return self._num_workers

    @property
    def case_insensitive(self) -> bool:
        """Whether values are lower-cased before applying and comparing."""
        return self._case_insensitive

    def build_target_index(self, target_values: Sequence[str]) -> ValueIndex:
        """Build the packed equi-join index for *target_values*.

        Applies this joiner's normalization (lower-casing when the joiner is
        case-insensitive), so the returned index is exactly what
        :meth:`join_values` would have built internally — the way to prebuild
        an index for the ``target_index`` parameter (e.g. a serving cache
        that keeps indexes warm across requests).
        """
        if self._case_insensitive:
            target_values = [value.lower() for value in target_values]
        return ValueIndex.build(target_values)

    # ------------------------------------------------------------------ #
    # Joining
    # ------------------------------------------------------------------ #
    def join_values(
        self,
        source_values: Sequence[str],
        target_values: Sequence[str],
        *,
        target_index: ValueIndex | None = None,
        deadline: float | None = None,
    ) -> JoinResult:
        """Join two plain value lists; row ids are list positions.

        ``deadline`` (a ``time.monotonic()`` timestamp) bounds the apply
        stage cooperatively: the remaining budget clamps the sharded
        executor's map timeout and is checked at block boundaries inside
        the walk, so an expired deadline raises
        :class:`~repro.parallel.errors.DeadlineExceededError` (possibly as
        the cause of a :class:`~repro.parallel.errors.ShardError`) instead
        of returning a partial result — responses are complete or typed
        errors, never a prefix.

        The join compiles the transformation set once (the compiled
        trie is cached on the joiner, so repeated calls — the apply-many
        scenario — pay the build exactly once), transforms every source row
        through it (sharded over rows when ``num_workers`` resolves above 1
        — see :func:`~repro.parallel.executor.tuned_num_workers`), keeping
        only the outputs the target index contains (its ``in`` test agrees
        with ``rows_for``, lower-casing included), and probes the packed
        target :class:`ValueIndex` in the same transformation-major order
        as the reference loop, so pairs, order and first-match attribution
        are identical to :meth:`join_values_reference`.  An output the walk
        drops has no target row, so dropping it changes no pair.

        The target index is likewise built at most once per target column:
        pass a prebuilt *target_index* (see :meth:`build_target_index` — the
        caller owns normalization consistency then), or rely on the joiner's
        most-recent-target cache, which keeps the last target column as a
        tuple next to its index (see :func:`shared_values_key` for what
        that tuple costs) and reuses the index when the next
        *target_values* are equal to it, value for value.
        """
        task_timeout = self._task_timeout_s or None
        if deadline is not None:
            remaining = deadline - monotonic()
            if remaining <= 0:
                raise DeadlineExceededError(
                    "join deadline expired before the apply stage started"
                )
            # The sharded map must not outlive the request: the configured
            # per-map timeout still applies, but never beyond the budget.
            task_timeout = (
                remaining if task_timeout is None else min(task_timeout, remaining)
            )
        key: tuple[str, ...] | None = None
        if target_index is None:
            # Keyed by the *raw* values: normalization happens after the
            # lookup, so a cached index (built over normalized values) keyed
            # by the raw values is exactly the index this call would build.
            key = tuple(target_values)
            with self._lock:
                cached = self._target_index_cache
            if cached is not None and cached[0] == key:
                target_index = cached[1]
        if self._case_insensitive:
            source_values = [value.lower() for value in source_values]
        else:
            source_values = list(source_values)
        if target_index is None:
            # The equi-join target map is the packed exact-value index: one
            # build pass, sorted array('i') postings probed without copying.
            target_index = self.build_target_index(target_values)
            assert key is not None
            key = shared_values_key(key, target_index)
            with self._lock:
                self._target_index_cache = (key, target_index)
        with self._lock:
            applier = self._applier
            if applier is None:
                applier = self._applier = TransformationApplier(
                    self._transformations
                )
        outputs = applier.transform_rows(
            source_values,
            num_workers=self._num_workers,
            min_rows_per_worker=self._min_rows_per_worker,
            task_timeout=task_timeout,
            shard_retries=self._shard_retries,
            serial_fallback=self._serial_fallback,
            deadline=deadline,
            within=target_index,
        )

        result = JoinResult()
        seen: set[tuple[int, int]] = set()
        for index, transformation in enumerate(self._transformations):
            for source_row, transformed in outputs.get(index, ()):
                for target_row in target_index.rows_for(transformed):
                    pair = (source_row, target_row)
                    if pair in seen:
                        continue
                    seen.add(pair)
                    result.pairs.append(pair)
                    result.matched_by[pair] = transformation
        return result

    def join_values_reference(
        self,
        source_values: Sequence[str],
        target_values: Sequence[str],
    ) -> JoinResult:
        """The one-transformation-at-a-time join loop (executable spec).

        Applies each transformation to every source value in turn — no
        shared-prefix reuse, no sharding.  Kept verbatim from the pre-model
        joiner so the equivalence tests can assert the batched path
        reproduces it pair for pair.
        """
        if self._case_insensitive:
            source_values = [value.lower() for value in source_values]
            target_values = [value.lower() for value in target_values]
        target_index = ValueIndex.build(target_values)

        result = JoinResult()
        seen: set[tuple[int, int]] = set()
        for transformation in self._transformations:
            for source_row, source_value in enumerate(source_values):
                transformed = transformation.apply(source_value)
                if transformed is None:
                    continue
                for target_row in target_index.rows_for(transformed):
                    key = (source_row, target_row)
                    if key in seen:
                        continue
                    seen.add(key)
                    result.pairs.append(key)
                    result.matched_by[key] = transformation
        return result

    def join(
        self,
        source: Table,
        target: Table,
        *,
        source_column: str,
        target_column: str,
    ) -> JoinResult:
        """Join two tables on the given columns."""
        return self.join_values(
            list(source[source_column]), list(target[target_column])
        )

    def materialize(
        self,
        source: Table,
        target: Table,
        *,
        source_column: str,
        target_column: str,
    ) -> Table:
        """Return the joined table (all columns of both inputs, suffixed)."""
        join_result = self.join(
            source,
            target,
            source_column=source_column,
            target_column=target_column,
        )
        return self.materialize_from(join_result, source, target)

    def materialize_from(
        self,
        join_result: JoinResult,
        source: Table,
        target: Table,
    ) -> Table:
        """Materialize an already-computed :class:`JoinResult` as a table.

        Callers that need both the pairs and the table (the pipeline's
        ``materialize`` flag) compute the join once and materialize from it,
        instead of paying the apply stage twice.
        """
        columns: dict[str, list[str]] = {}
        for name in source.column_names:
            columns[f"{name}_source"] = []
        for name in target.column_names:
            columns[f"{name}_target"] = []
        columns["__left_row__"] = []
        columns["__right_row__"] = []
        for source_row, target_row in join_result.pairs:
            for name in source.column_names:
                columns[f"{name}_source"].append(source[name][source_row])
            for name in target.column_names:
                columns[f"{name}_target"].append(target[name][target_row])
            columns["__left_row__"].append(str(source_row))
            columns["__right_row__"].append(str(target_row))
        return Table(columns, name=f"{source.name}_tjoin_{target.name}")
