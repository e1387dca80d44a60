"""Core contribution: efficient discovery of joinability transformations.

This package implements the paper's primary contribution — learning string
transformations that make two differently-formatted columns equi-joinable —
following the pipeline of Section 4:

1. :mod:`repro.core.units` — the basic transformation units
   (``Substr``, ``Split``, ``SplitSubstr``, ``TwoCharSplitSubstr``,
   ``Literal``),
2. :mod:`repro.core.transformation` — transformations as unit sequences,
3. :mod:`repro.core.placeholders` — placeholder detection (textual evidence
   of copying between source and target),
4. :mod:`repro.core.skeletons` — transformation skeletons built from
   placeholders and literals,
5. :mod:`repro.core.unit_generation` — candidate units per placeholder,
6. :mod:`repro.core.coverage` — coverage computation with duplicate removal
   and the non-covering-unit cache,
7. :mod:`repro.core.cover` — maximum-coverage and greedy minimal-cover
   selection,
8. :mod:`repro.core.discovery` — the end-to-end discovery engine,
9. :mod:`repro.core.sampling` — the sampling analysis of Section 5.3.
"""

from repro.core.config import DiscoveryConfig
from repro.core.cover import greedy_minimal_cover, top_k_by_coverage
from repro.core.coverage import CoverageComputer, CoverageResult
from repro.core.discovery import DiscoveryResult, TransformationDiscovery
from repro.core.pairs import RowPair
from repro.core.placeholders import Placeholder, PlaceholderExtractor
from repro.core.sampling import (
    autojoin_expected_covered_subsets,
    probability_discovered,
    required_subsets_for_autojoin,
)
from repro.core.skeletons import Skeleton, SkeletonBuilder, SkeletonPiece
from repro.core.stats import DiscoveryStats
from repro.core.transformation import Transformation
from repro.core.unit_generation import UnitGenerator
from repro.core.units import (
    Literal,
    Split,
    SplitSubstr,
    Substr,
    TransformationUnit,
    TwoCharSplitSubstr,
)

__all__ = [
    "CoverageComputer",
    "CoverageResult",
    "DiscoveryConfig",
    "DiscoveryResult",
    "DiscoveryStats",
    "Literal",
    "Placeholder",
    "PlaceholderExtractor",
    "RowPair",
    "Skeleton",
    "SkeletonBuilder",
    "SkeletonPiece",
    "Split",
    "SplitSubstr",
    "Substr",
    "Transformation",
    "TransformationDiscovery",
    "TransformationUnit",
    "TwoCharSplitSubstr",
    "UnitGenerator",
    "autojoin_expected_covered_subsets",
    "greedy_minimal_cover",
    "probability_discovered",
    "required_subsets_for_autojoin",
    "top_k_by_coverage",
]
