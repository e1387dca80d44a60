"""Expanding skeletons into candidate transformations (Section 4.1.4).

Every placeholder of a skeleton is replaced by its candidate units, every
literal gap by a ``Literal`` unit, and the Cartesian product of the candidate
sets yields the skeleton's transformations.  The product is expanded depth
first into a :class:`~repro.core.coverage.TrieBuilder`, the unit-prefix trie
the coverage walk runs on, with adjacent literals merged on the way; it is
capped so a pathological row cannot blow up memory.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.config import DiscoveryConfig
from repro.core.coverage import TrieBuilder
from repro.core.skeletons import Skeleton
from repro.core.transformation import Transformation
from repro.core.unit_generation import UnitGenerator

#: Safety cap on the number of transformations generated from one skeleton.
#: In practice the per-placeholder candidate sets are tiny (a handful of
#: units), so this cap is only reached for adversarial inputs.
MAX_TRANSFORMATIONS_PER_SKELETON = 50_000


class TransformationGenerator:
    """Generate candidate transformations from a row's skeletons."""

    def __init__(self, config: DiscoveryConfig | None = None) -> None:
        self._config = config or DiscoveryConfig()
        self._unit_generator = UnitGenerator(self._config)

    def unit_sets(
        self, builder: TrieBuilder, source: str, skeleton: Skeleton
    ) -> list[list[int]]:
        """The candidate units of each piece of *skeleton*, interned in *builder*.

        * for a literal gap: the single ``Literal`` unit,
        * for a placeholder: every unit produced by
          :class:`~repro.core.unit_generation.UnitGenerator` (the
          placeholder's ``Literal`` when there is none).
        """
        sets: list[list[int]] = []
        for piece in skeleton.pieces:
            if piece.is_placeholder:
                assert piece.placeholder is not None
                candidates = self._unit_generator.candidates(source, piece.placeholder)
                if candidates:
                    sets.append([builder.intern(unit) for unit in candidates])
                    continue
            sets.append([builder.literal(piece.text)])
        return sets

    def from_row(
        self, source: str, skeletons: list[Skeleton]
    ) -> Iterator[Transformation]:
        """Yield the transformations of every skeleton of a row, in order.

        Each skeleton yields its product in ``itertools.product`` order,
        simplified (adjacent literals merged) and without duplicate removal,
        after expanding it into a builder of the row's own; a skeleton is
        expanded only when the previous one's transformations are used up.
        """
        builder = TrieBuilder()
        for skeleton in skeletons:
            start = len(builder)
            builder.expand(
                self.unit_sets(builder, source, skeleton),
                MAX_TRANSFORMATIONS_PER_SKELETON,
                dedup=False,
            )
            yield from builder.transformations(start)
