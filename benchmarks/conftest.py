"""Shared helpers for the benchmark harness.

Every module under ``benchmarks/`` regenerates one table or figure of the
paper's evaluation (Section 6).  Benchmarks run at a reduced scale by default
so the whole harness finishes in minutes on a laptop; set the environment
variable ``REPRO_BENCH_SCALE`` (e.g. ``1.0`` for paper scale, ``0.05`` for a
smoke run) to change it.

Each benchmark prints the rows of the table/figure it reproduces (the same
columns the paper reports) and also appends them to
``benchmarks/results/<name>.txt``, so claims about a table can cite concrete
numbers (Table 3's are in ``benchmarks/results/table3_join.txt``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.discovery import TransformationDiscovery
from repro.datasets.synthetic import SyntheticConfig, generate_table_pair
from repro.matching.row_matcher import MatchingConfig, NGramRowMatcher

#: Directory where benchmark reports are written.
RESULTS_DIR = Path(__file__).parent / "results"

#: Discovery's generation sample (Section 5.3) for the Figure 4 sweeps; it
#: keeps the number of candidate transformations roughly constant across
#: row counts, so the coverage stage scales with rows only.
FIG4_SAMPLE_SIZE = 200


def bench_scale(default: float = 0.15) -> float:
    """The dataset scale factor for benchmarks (1.0 = paper scale)."""
    value = os.environ.get("REPRO_BENCH_SCALE", "")
    if not value:
        return default
    scale = float(value)
    if scale <= 0:
        raise ValueError(f"REPRO_BENCH_SCALE must be positive, got {scale}")
    return scale


def write_report(name: str, text: str) -> Path:
    """Write a benchmark report to ``benchmarks/results/<name>.txt`` and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print()
    print(text)
    return path


def write_json(name: str, payload: dict) -> Path:
    """Write *payload* to ``benchmarks/results/BENCH_<name>.json``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def fig4_point(num_rows: int, row_length: int, *, seed: int) -> dict:
    """Time serial matching and discovery on one synthetic pair (Figure 4).

    The pair has *num_rows* rows of exactly *row_length* characters.
    Matching is timed around the call; discovery's stages come from
    :attr:`~repro.core.stats.DiscoveryStats.stage_seconds`.  Asserts that
    every stage produced output and that no time budget cut the run.
    """
    pair, _ = generate_table_pair(
        SyntheticConfig(
            num_rows=num_rows,
            min_length=row_length,
            max_length=row_length,
            seed=seed,
        )
    )
    source = list(pair.source["value"])
    target = list(pair.target["value"])
    started = time.perf_counter()
    pairs = NGramRowMatcher(MatchingConfig()).match_values(source, target)
    matching_s = time.perf_counter() - started
    result = TransformationDiscovery(
        DiscoveryConfig(sample_size=FIG4_SAMPLE_SIZE, num_workers=1)
    ).discover(pairs)
    stats = result.stats
    assert pairs, f"{num_rows} rows of length {row_length}: no candidate pairs"
    assert stats.unique_transformations > 0, "no transformations generated"
    assert result.cover, "empty cover"
    assert not stats.budget_exhausted, "discovery was cut by a time budget"
    discovery_s = stats.total_seconds
    return {
        "rows": num_rows,
        "row_length": row_length,
        "stages": {"row_matching": matching_s, **stats.stage_seconds},
        "total_s": matching_s + discovery_s,
        "matching_s": matching_s,
        "discovery_s": discovery_s,
        "num_pairs": len(pairs),
        "num_transformations": stats.unique_transformations,
        "cover_size": len(result.cover),
        "top_coverage": result.top_coverage,
    }


@pytest.fixture(scope="session")
def scale() -> float:
    """Session-wide dataset scale factor."""
    return bench_scale()
