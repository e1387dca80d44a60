"""The complete end-to-end join pipeline (Section 4.2), split fit/apply.

``JoinPipeline`` chains the three stages of the paper's system:

1. **Row matching** — a row matcher (the engine picked by
   :func:`~repro.matching.row_matcher.create_row_matcher`, or a golden
   matcher) proposes candidate joinable row pairs,
2. **Transformation discovery** — the
   :class:`~repro.core.discovery.TransformationDiscovery` engine learns a
   covering set of transformations from those pairs,
3. **Transformation join** — the
   :class:`~repro.join.joiner.TransformationJoiner` applies the
   transformations (filtered by a minimum support) and equi-joins.

Stages 1–2 are *training* (they look at the table pair once and produce a
reusable artifact), stage 3 is *serving* (it can run on any table pair the
transformations apply to).  The pipeline exposes that seam directly:

* :meth:`JoinPipeline.fit` runs matching + discovery and returns a
  serializable :class:`~repro.model.artifact.TransformationModel`;
* :meth:`JoinPipeline.apply` takes a model (fresh from :meth:`fit` or loaded
  from disk) and joins *any* source/target tables with it — no matching, no
  re-discovery, just the apply-only engine;
* :meth:`JoinPipeline.run` is the classic one-shot composition of the two,
  returning the same :class:`PipelineResult` it always has.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import DiscoveryConfig
from repro.core.discovery import DiscoveryResult, TransformationDiscovery
from repro.join.joiner import JoinResult, TransformationJoiner
from repro.matching.row_matcher import RowMatcher, create_row_matcher
from repro.model.artifact import TransformationModel
from repro.table.table import Table


@dataclass
class PipelineResult:
    """Everything the end-to-end pipeline produced for one table pair."""

    candidate_pairs: int
    discovery: DiscoveryResult
    join: JoinResult
    joined_table: Table | None = None
    extra: dict = field(default_factory=dict)

    @property
    def joined_pairs(self) -> set[tuple[int, int]]:
        """The joined (source_row, target_row) pairs."""
        return self.join.as_set()


@dataclass
class ApplyResult:
    """What applying a fitted model to one table pair produced.

    Unlike :class:`PipelineResult` there is no discovery here — the model
    may have been fitted in another process entirely; ``model`` records
    which artifact produced the join, ``applied_transformations`` the
    transformations the joiner actually ran (the model's cover after
    support filtering and the constant drop) in application order.
    """

    model: TransformationModel
    join: JoinResult
    applied_transformations: list = field(default_factory=list)
    joined_table: Table | None = None

    @property
    def joined_pairs(self) -> set[tuple[int, int]]:
        """The joined (source_row, target_row) pairs."""
        return self.join.as_set()


class JoinPipeline:
    """End-to-end system: match rows, learn transformations, join.

    Example
    -------
    >>> from repro import JoinPipeline
    >>> pipeline = JoinPipeline()
    >>> model = pipeline.fit(source_table, target_table,
    ...                      source_column="Name", target_column="Name")
    >>> model.save("model.json")
    >>> outcome = pipeline.apply(model, other_source, other_target,
    ...                          source_column="Name", target_column="Name")
    >>> outcome.join.num_pairs

    or, one-shot::

    >>> result = pipeline.run(source_table, target_table,
    ...                       source_column="Name", target_column="Name")
    """

    def __init__(
        self,
        *,
        matcher: RowMatcher | None = None,
        discovery_config: DiscoveryConfig | None = None,
        min_support: float = 0.05,
        materialize: bool = False,
        num_workers: int | None = None,
        task_timeout_s: float = 0.0,
        shard_retries: int = 2,
        serial_fallback: bool = True,
    ) -> None:
        """Create a pipeline.

        Parameters
        ----------
        matcher:
            The row matcher; defaults to the engine selected by
            ``REPRO_MATCHER`` (the n-gram matcher with the paper's settings
            unless overridden).
        discovery_config:
            Configuration of the discovery engine.
        min_support:
            Minimum coverage fraction a transformation needs to be applied in
            the join (the paper uses 5 %, and 2 % for open data).  Recorded
            in the fitted model, so a loaded model applies the same
            threshold.
        materialize:
            When True the joined table is materialized in the result.
        num_workers:
            Worker processes for the apply stage (1 = serial, 0 = all
            cores; ``None`` honours ``REPRO_NUM_WORKERS``).  Matching and
            discovery carry their own knobs
            (``MatchingConfig.num_workers`` / ``DiscoveryConfig.num_workers``);
            all three resolve through
            :func:`~repro.parallel.executor.tuned_num_workers`.
        task_timeout_s / shard_retries / serial_fallback:
            Fault tolerance of the sharded apply stage (wall-clock bound per
            sharded map with 0 = unbounded, pool retries per failed shard,
            serial inline recomputation of unproducible shards); see
            :func:`~repro.parallel.executor.map_sharded`.  Matching and
            discovery carry the equivalent knobs on their own configs.
        """
        TransformationJoiner.check_settings(
            min_support=min_support,
            num_workers=num_workers,
            task_timeout_s=task_timeout_s,
            shard_retries=shard_retries,
        )
        self._matcher = matcher or create_row_matcher()
        self._discovery = TransformationDiscovery(discovery_config)
        self._min_support = min_support
        self._materialize = materialize
        self._num_workers = num_workers
        self._task_timeout_s = task_timeout_s
        self._shard_retries = shard_retries
        self._serial_fallback = serial_fallback

    # ------------------------------------------------------------------ #
    # fit: matching + discovery -> model
    # ------------------------------------------------------------------ #
    def fit(
        self,
        source: Table,
        target: Table,
        *,
        source_column: str,
        target_column: str,
    ) -> TransformationModel:
        """Learn a :class:`TransformationModel` from one table pair.

        Runs row matching and transformation discovery; the returned model
        carries the covering set, its coverage statistics, the discovery
        configuration and this pipeline's ``min_support`` — everything
        :meth:`apply` (or a later process that only calls
        ``TransformationModel.load``) needs.  The live
        :class:`DiscoveryResult` stays attached as ``model.discovery``.
        """
        candidate_pairs = self._matcher.match(
            source,
            target,
            source_column=source_column,
            target_column=target_column,
        )
        discovery = self._discovery.discover(candidate_pairs)
        return TransformationModel.from_discovery(
            discovery,
            config=self._discovery.config,
            min_support=self._min_support,
        )

    # ------------------------------------------------------------------ #
    # apply: model + any table pair -> joined pairs (no re-discovery)
    # ------------------------------------------------------------------ #
    def apply(
        self,
        model: TransformationModel,
        source: Table,
        target: Table,
        *,
        source_column: str,
        target_column: str,
    ) -> ApplyResult:
        """Join a (possibly unseen) table pair with a fitted model.

        No matching and no discovery run here: the model's transformations
        are compiled into the batched apply engine, filtered by the model's
        recorded support threshold, and equi-joined against the target
        column — the pure serving path.
        """
        joiner = model.joiner(
            num_workers=self._num_workers,
            task_timeout_s=self._task_timeout_s,
            shard_retries=self._shard_retries,
            serial_fallback=self._serial_fallback,
        )
        join_result = joiner.join(
            source,
            target,
            source_column=source_column,
            target_column=target_column,
        )
        joined_table = None
        if self._materialize:
            # Materialize from the pairs already computed — the apply stage
            # must not run twice.
            joined_table = joiner.materialize_from(join_result, source, target)
        return ApplyResult(
            model=model,
            join=join_result,
            applied_transformations=joiner.transformations,
            joined_table=joined_table,
        )

    # ------------------------------------------------------------------ #
    # run: the one-shot composition
    # ------------------------------------------------------------------ #
    def run(
        self,
        source: Table,
        target: Table,
        *,
        source_column: str,
        target_column: str,
    ) -> PipelineResult:
        """Run the full pipeline on one table pair (fit, then apply)."""
        model = self.fit(
            source,
            target,
            source_column=source_column,
            target_column=target_column,
        )
        applied = self.apply(
            model,
            source,
            target,
            source_column=source_column,
            target_column=target_column,
        )
        discovery = model.discovery
        assert discovery is not None  # fit always attaches the live result
        return PipelineResult(
            candidate_pairs=model.num_candidate_pairs,
            discovery=discovery,
            join=applied.join,
            joined_table=applied.joined_table,
        )
