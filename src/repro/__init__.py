"""repro — a reproduction of "Efficiently Transforming Tables for Joinability".

The library learns string transformations that make two differently-formatted
table columns equi-joinable, following Dargahi Nobari & Rafiei (ICDE 2022).

Typical usage::

    from repro import TransformationDiscovery

    engine = TransformationDiscovery()
    result = engine.discover_from_strings([
        ("Rafiei, Davood", "D Rafiei"),
        ("Bowling, Michael", "M Bowling"),
        ("Gosgnach, Simon", "S Gosgnach"),
    ])
    best = result.best.transformation
    best.apply("Nascimento, Mario")   # -> 'M Nascimento'

or, end to end over two tables::

    from repro import JoinPipeline, Table

    pipeline = JoinPipeline()
    outcome = pipeline.run(source_table, target_table,
                           source_column="Name", target_column="Name")

Sub-packages
------------
``repro.core``
    Transformation units, placeholders, skeletons, the discovery engine.
``repro.matching``
    N-gram row matching (Algorithm 1 of the paper).
``repro.join``
    The end-to-end transformation join (fit/apply and one-shot).
``repro.model``
    The artifact layer: serializable transformation models and the
    apply-only execution engine.
``repro.serve``
    The serving layer: a long-lived HTTP join server with a hot-reloading
    model registry, warm compiled-artifact caches, and request
    micro-batching.
``repro.baselines``
    Auto-Join, Auto-FuzzyJoin and set-similarity join baselines.
``repro.datasets``
    Synthetic and simulated real-world benchmark generators.
``repro.evaluation``
    Precision/recall/F1 and coverage metrics, report formatting.
``repro.table``
    The lightweight relational substrate.
"""

from repro.core import (
    DiscoveryConfig,
    DiscoveryResult,
    Literal,
    RowPair,
    Split,
    SplitSubstr,
    Substr,
    Transformation,
    TransformationDiscovery,
    TwoCharSplitSubstr,
)
from repro.join import ApplyResult, JoinPipeline, PipelineResult, TransformationJoiner
from repro.matching import GoldenRowMatcher, MatchingConfig, NGramRowMatcher
from repro.model import (
    ModelFormatError,
    SchemaVersionError,
    TransformationApplier,
    TransformationModel,
)
from repro.table import Table, read_csv, write_csv

__version__ = "1.0.0"

__all__ = [
    "ApplyResult",
    "DiscoveryConfig",
    "DiscoveryResult",
    "GoldenRowMatcher",
    "JoinPipeline",
    "Literal",
    "MatchingConfig",
    "ModelFormatError",
    "NGramRowMatcher",
    "PipelineResult",
    "RowPair",
    "SchemaVersionError",
    "Split",
    "SplitSubstr",
    "Substr",
    "Table",
    "Transformation",
    "TransformationApplier",
    "TransformationDiscovery",
    "TransformationJoiner",
    "TransformationModel",
    "TwoCharSplitSubstr",
    "read_csv",
    "write_csv",
    "__version__",
]
