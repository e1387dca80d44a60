"""Statistics collected by the discovery pipeline.

Table 4 and Figure 3 of the paper report the effectiveness of the two pruning
strategies (duplicate removal and the non-covering-unit cache); Figure 4
reports the per-module runtime breakdown.  :class:`DiscoveryStats` gathers
everything those experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DiscoveryStats:
    """Counters and timings describing one discovery run.

    Attributes
    ----------
    num_pairs:
        Number of (source, target) row pairs the run operated on (after
        sampling, if sampling was enabled).
    num_skeletons:
        Total number of skeletons built across all rows.
    generated_transformations:
        Number of candidate transformations generated (before duplicate
        removal) — the paper's "Generated trans." column.
    unique_transformations:
        Number of distinct transformations kept — the paper's "Trans. to try".
    cache_hits / cache_misses:
        Outcomes of the non-covering-unit cache when applying transformations
        to rows: a hit means a (transformation, row) application was skipped
        because one of its units was already known not to cover the row.
        Every (transformation, row) application is classified exactly once;
        the batched coverage engine tallies whole skipped subtrees at once,
        so the exact split can differ from the one-at-a-time path even
        though both preserve this meaning.
    applications:
        Number of full transformation applications actually executed (in
        batched mode: transformations whose every unit applied, i.e. whose
        concatenated output was fully compared against the target).
    stage_seconds:
        Wall-clock seconds per pipeline stage (placeholder generation, unit
        extraction, duplicate removal, applying transformations, cover
        selection), for the Figure 4 breakdown.
    budget_exhausted:
        True when a ``time_budget_s``-capped run hit its deadline and
        degraded to a best-so-far result.  Part of the run's provenance —
        a serialized :class:`~repro.model.artifact.TransformationModel`
        carries it in its stats, so a degraded model is distinguishable
        from a fully converged one forever after.
    budget_stage:
        Which stage the budget ran out in (``"skeleton_generation"`` or
        ``"applying_transformations"``); ``None`` when it did not.
    rows_fully_processed:
        How many input rows the budget-hit stage finished before the cut;
        ``None`` when the budget was not exhausted.
    """

    num_pairs: int = 0
    num_skeletons: int = 0
    generated_transformations: int = 0
    unique_transformations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    applications: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    budget_exhausted: bool = False
    budget_stage: str | None = None
    rows_fully_processed: int | None = None

    # ------------------------------------------------------------------ #
    # Derived ratios reported in Table 4 / Figure 3
    # ------------------------------------------------------------------ #
    @property
    def duplicate_transformations(self) -> int:
        """Number of generated transformations discarded as duplicates."""
        return max(0, self.generated_transformations - self.unique_transformations)

    @property
    def duplicate_ratio(self) -> float:
        """Fraction of generated transformations that were duplicates."""
        if self.generated_transformations == 0:
            return 0.0
        return self.duplicate_transformations / self.generated_transformations

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of (transformation, row) applications skipped by the cache."""
        attempts = self.cache_hits + self.cache_misses
        if attempts == 0:
            return 0.0
        return self.cache_hits / attempts

    @property
    def total_seconds(self) -> float:
        """Total recorded wall-clock time across stages."""
        return sum(self.stage_seconds.values())

    def as_dict(self) -> dict[str, float]:
        """Flatten the statistics to a plain dict (for reports and tests).

        ``budget_exhausted`` is always present (it is provenance: consumers
        of a serialized model must be able to rely on the key); the
        stage/row detail keys appear only when the budget actually ran out.
        """
        flat = {
            "num_pairs": self.num_pairs,
            "num_skeletons": self.num_skeletons,
            "generated_transformations": self.generated_transformations,
            "unique_transformations": self.unique_transformations,
            "duplicate_transformations": self.duplicate_transformations,
            "duplicate_ratio": self.duplicate_ratio,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_ratio": self.cache_hit_ratio,
            "applications": self.applications,
            "total_seconds": self.total_seconds,
            "budget_exhausted": self.budget_exhausted,
            **{f"seconds_{k}": v for k, v in self.stage_seconds.items()},
        }
        if self.budget_exhausted:
            flat["budget_stage"] = self.budget_stage
            flat["rows_fully_processed"] = self.rows_fully_processed
        return flat
