"""The serializable :class:`TransformationModel` artifact.

The model is the seam between *fit* and *apply*: everything a join needs to
run later — on another batch, in another process, on another machine —
without re-running matching or discovery:

* the selected covering set, in selection order (the order the joiner
  applies transformations in, so first-match attribution is reproducible);
* each transformation's discovery-time coverage count and the candidate-pair
  total, so support thresholds evaluate at apply time exactly as they would
  have in the one-shot pipeline;
* the :class:`~repro.core.config.DiscoveryConfig` that produced the set
  (provenance, plus the ``case_insensitive`` flag the joiner must honour);
* the join-time ``min_support`` fraction chosen at fit time;
* a summary of the discovery statistics (optional, informational).

The on-disk format is versioned JSON (see :mod:`repro.model.serialization`);
``loads(dumps(model))`` round-trips to an equal model whose transformations
apply byte-identically, and loading rejects corrupt files
(:class:`~repro.model.serialization.ModelFormatError`) and unknown schema
versions (:class:`~repro.model.serialization.SchemaVersionError`) instead of
guessing.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.config import DiscoveryConfig
from repro.core.transformation import Transformation
from repro.model.serialization import (
    FORMAT_NAME,
    SCHEMA_VERSION,
    ModelFormatError,
    SchemaVersionError,
    config_from_dict,
    config_to_dict,
    transformation_from_dict,
    transformation_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.discovery import DiscoveryResult
    from repro.join.joiner import TransformationJoiner


@dataclass
class TransformationModel:
    """A fitted, serializable set of transformations plus its provenance.

    Attributes
    ----------
    transformations:
        The selected cover, in selection order.
    coverage_counts:
        Discovery-time covered-pair count of each transformation (aligned
        with ``transformations``) — the numerator of its support fraction.
    num_candidate_pairs:
        Number of candidate pairs coverage was computed over — the
        denominator of every support fraction.
    min_support:
        Join-time support threshold (fraction of candidate pairs) chosen at
        fit time; 0 disables support filtering.
    discovery_config:
        The configuration of the discovery run that produced the model.
    stats:
        Flat summary of the discovery statistics (informational only; not
        part of model equality semantics beyond plain dict comparison).
    schema_version:
        Version of the serialization schema this model (de)serializes with.
    discovery:
        The full :class:`~repro.core.discovery.DiscoveryResult` when the
        model was fitted in this process; ``None`` after loading from disk.
        Never serialized, never compared.
    """

    transformations: list[Transformation]
    coverage_counts: list[int]
    num_candidate_pairs: int
    min_support: float = 0.0
    discovery_config: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    stats: dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    discovery: "DiscoveryResult | None" = field(
        default=None, compare=False, repr=False
    )
    # Joiner cache, keyed by the worker knobs: the fit-once / apply-many
    # path must pay the support filter and the trie compile once per model,
    # not once per batch.  Never serialized, never compared.  The lock keeps
    # the memo coherent when one model instance serves concurrent request
    # threads (the `repro.serve` registry shares models across a
    # ThreadingHTTPServer's handlers).
    _joiners: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _joiners_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if len(self.transformations) != len(self.coverage_counts):
            raise ValueError(
                f"{len(self.transformations)} transformations but "
                f"{len(self.coverage_counts)} coverage counts"
            )
        if any(count < 0 for count in self.coverage_counts):
            raise ValueError(
                f"coverage counts must be >= 0, got {self.coverage_counts}"
            )
        if self.num_candidate_pairs < 0:
            raise ValueError(
                f"num_candidate_pairs must be >= 0, got {self.num_candidate_pairs}"
            )
        if not 0.0 <= self.min_support <= 1.0:
            raise ValueError(
                f"min_support must be in [0, 1], got {self.min_support}"
            )

    # ------------------------------------------------------------------ #
    # Construction from a discovery run
    # ------------------------------------------------------------------ #
    @classmethod
    def from_discovery(
        cls,
        discovery: "DiscoveryResult",
        *,
        config: DiscoveryConfig | None = None,
        min_support: float = 0.0,
    ) -> "TransformationModel":
        """Build a model from a finished discovery run.

        *config* is the configuration the run used (recorded for provenance
        and for the ``case_insensitive`` apply flag); *min_support* is the
        join-time threshold the model will carry.  The live
        :class:`DiscoveryResult` stays attached (``model.discovery``) so a
        same-process caller keeps the full statistics; it is dropped on
        serialization.
        """
        return cls(
            transformations=[result.transformation for result in discovery.cover],
            coverage_counts=[result.coverage for result in discovery.cover],
            num_candidate_pairs=discovery.num_candidate_pairs,
            min_support=min_support,
            discovery_config=config or DiscoveryConfig(),
            stats=discovery.stats.as_dict(),
            discovery=discovery,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_transformations(self) -> int:
        """Size of the stored covering set."""
        return len(self.transformations)

    @property
    def case_insensitive(self) -> bool:
        """Whether the transformations were learned on lower-cased text."""
        return self.discovery_config.case_insensitive

    def describe(self) -> str:
        """Human-readable multi-line summary of the model."""
        lines = [
            f"TransformationModel (schema v{self.schema_version}): "
            f"{self.num_transformations} transformations over "
            f"{self.num_candidate_pairs} candidate pairs, "
            f"min_support={self.min_support}",
        ]
        for transformation, count in zip(self.transformations, self.coverage_counts):
            lines.append(f"  covers {count:5d}: {transformation}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # The apply side
    # ------------------------------------------------------------------ #
    def joiner(
        self,
        *,
        num_workers: int | None = None,
        task_timeout_s: float = 0.0,
        shard_retries: int = 2,
        serial_fallback: bool = True,
    ) -> "TransformationJoiner":
        """A :class:`~repro.join.joiner.TransformationJoiner` for this model.

        The joiner re-evaluates the model's ``min_support`` threshold
        against the stored discovery-time coverage counts — exactly the
        filtering the one-shot pipeline would have applied — and honours the
        ``case_insensitive`` flag of the discovery config.
        ``task_timeout_s``/``shard_retries``/``serial_fallback`` configure
        the sharded apply stage's fault tolerance (see
        :class:`~repro.join.joiner.TransformationJoiner`).

        Joiners are memoized per parameter tuple: repeated calls (every
        :meth:`~repro.join.pipeline.JoinPipeline.apply` goes through here)
        reuse the same joiner and therefore the same compiled trie.  The
        model is treated as an immutable artifact — mutating
        ``transformations`` in place after the first call would leave a
        stale cache.
        """
        from repro.join.joiner import TransformationJoiner

        key = (num_workers, task_timeout_s, shard_retries, serial_fallback)
        with self._joiners_lock:
            joiner = self._joiners.get(key)
            if joiner is None:
                joiner = self._joiners[key] = TransformationJoiner(
                    self.transformations,
                    min_support=self.min_support,
                    coverage_counts=self.coverage_counts,
                    num_candidate_pairs=self.num_candidate_pairs,
                    case_insensitive=self.case_insensitive,
                    num_workers=num_workers,
                    task_timeout_s=task_timeout_s,
                    shard_retries=shard_retries,
                    serial_fallback=serial_fallback,
                )
        return joiner

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """The versioned JSON-able payload of this model."""
        return {
            "format": FORMAT_NAME,
            "schema_version": self.schema_version,
            "num_candidate_pairs": self.num_candidate_pairs,
            "min_support": self.min_support,
            "discovery_config": config_to_dict(self.discovery_config),
            "cover": [
                {
                    "units": transformation_to_dict(transformation),
                    "coverage": count,
                }
                for transformation, count in zip(
                    self.transformations, self.coverage_counts
                )
            ],
            "stats": self.stats,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "TransformationModel":
        """Parse a model payload, validating format and schema version."""
        if not isinstance(payload, dict):
            raise ModelFormatError(
                f"model payload must be an object, got {type(payload).__name__}"
            )
        if payload.get("format") != FORMAT_NAME:
            raise ModelFormatError(
                f"not a transformation model: format is "
                f"{payload.get('format')!r}, expected {FORMAT_NAME!r}"
            )
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"unsupported model schema version {version!r}; this library "
                f"reads version {SCHEMA_VERSION}"
            )
        missing = {"num_candidate_pairs", "cover"} - set(payload)
        if missing:
            raise ModelFormatError(f"model payload missing keys {sorted(missing)}")
        num_candidate_pairs = payload["num_candidate_pairs"]
        if not isinstance(num_candidate_pairs, int) or isinstance(
            num_candidate_pairs, bool
        ):
            raise ModelFormatError(
                f"num_candidate_pairs must be an integer, "
                f"got {num_candidate_pairs!r}"
            )
        min_support = payload.get("min_support", 0.0)
        if not isinstance(min_support, (int, float)) or isinstance(min_support, bool):
            raise ModelFormatError(
                f"min_support must be a number, got {min_support!r}"
            )
        cover = payload["cover"]
        if not isinstance(cover, list):
            raise ModelFormatError(f"cover must be a list, got {cover!r}")
        transformations: list[Transformation] = []
        coverage_counts: list[int] = []
        for entry in cover:
            if not isinstance(entry, dict) or "units" not in entry:
                raise ModelFormatError(
                    f"cover entries must be objects with units, got {entry!r}"
                )
            coverage = entry.get("coverage", 0)
            if not isinstance(coverage, int) or isinstance(coverage, bool):
                raise ModelFormatError(
                    f"cover entry coverage must be an integer, got {coverage!r}"
                )
            transformations.append(transformation_from_dict(entry["units"]))
            coverage_counts.append(coverage)
        if min_support > 0 and num_candidate_pairs == 0 and transformations:
            # No fit can produce this (a non-empty cover implies candidate
            # pairs): the support threshold would be unevaluable at apply
            # time, so reject the artifact as inconsistent rather than let
            # the joiner blow up later.
            raise ModelFormatError(
                "inconsistent model: min_support > 0 with a non-empty cover "
                "requires num_candidate_pairs > 0"
            )
        stats = payload.get("stats") or {}
        if not isinstance(stats, dict):
            raise ModelFormatError(f"stats must be an object, got {stats!r}")
        try:
            return cls(
                transformations=transformations,
                coverage_counts=coverage_counts,
                num_candidate_pairs=num_candidate_pairs,
                min_support=float(min_support),
                discovery_config=config_from_dict(
                    payload.get("discovery_config") or {}
                ),
                stats=stats,
                schema_version=version,
            )
        except (TypeError, ValueError) as error:
            if isinstance(error, ModelFormatError):
                raise
            raise ModelFormatError(f"invalid model payload: {error}") from error

    def dumps(self, *, indent: int | None = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def loads(cls, text: str) -> "TransformationModel":
        """Parse a model from a JSON string (strict)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ModelFormatError(f"model file is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    def save(self, path: str | Path) -> Path:
        """Write the model to *path* as JSON; returns the path.

        The write is atomic (temp file + ``os.replace`` in the target
        directory): a crash mid-write, or a concurrent reader, never sees a
        truncated artifact — the previous model survives until the new one
        is fully on disk.
        """
        path = Path(path)
        temp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        temp.write_text(self.dumps(), encoding="utf-8")
        try:
            os.replace(temp, path)
        except OSError:
            temp.unlink(missing_ok=True)
            raise
        return path

    @classmethod
    def load(cls, path: str | Path) -> "TransformationModel":
        """Read a model from a JSON file written by :meth:`save`."""
        return cls.loads(Path(path).read_text(encoding="utf-8"))


__all__ = ["TransformationModel"]
