"""Automatic garbage collection is off inside ``TransformationDiscovery.discover``.

A wide input allocates hundreds of thousands of long-lived containers and
almost no cyclic garbage, so the collector's full passes there are pure
overhead.  ``discover`` switches it off for the call and must hand the
collector back exactly as it found it, on success and on failure.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.discovery import TransformationDiscovery
from repro.core.generation import TransformationGenerator
from repro.core.pairs import pairs_from_strings
from repro.datasets.synthetic import SyntheticConfig, generate_table_pair

PAIRS = [
    ("Rafiei, Davood", "D Rafiei"),
    ("Bowling, Michael", "M Bowling"),
    ("Gosgnach, Simon", "S Gosgnach"),
]


@pytest.fixture
def restore_gc():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_discover_leaves_gc_as_it_found_it(restore_gc, monkeypatch, enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    during = []
    unit_sets = TransformationGenerator.unit_sets

    def recording_unit_sets(self, builder, source, skeleton):
        during.append(gc.isenabled())
        return unit_sets(self, builder, source, skeleton)

    monkeypatch.setattr(TransformationGenerator, "unit_sets", recording_unit_sets)
    result = TransformationDiscovery().discover_from_strings(PAIRS)
    assert result.cover_coverage == 1.0
    assert during and not any(during)
    assert gc.isenabled() is enabled


def test_gc_re_enabled_when_a_stage_raises(restore_gc, monkeypatch):
    gc.enable()

    def failing_unit_sets(self, builder, source, skeleton):
        raise RuntimeError("unit extraction failed")

    monkeypatch.setattr(TransformationGenerator, "unit_sets", failing_unit_sets)
    with pytest.raises(RuntimeError, match="unit extraction failed"):
        TransformationDiscovery().discover_from_strings(PAIRS)
    assert gc.isenabled()


def test_gc_stays_disabled_when_a_stage_raises(restore_gc, monkeypatch):
    gc.disable()

    def failing_unit_sets(self, builder, source, skeleton):
        raise RuntimeError("unit extraction failed")

    monkeypatch.setattr(TransformationGenerator, "unit_sets", failing_unit_sets)
    with pytest.raises(RuntimeError, match="unit extraction failed"):
        TransformationDiscovery().discover_from_strings(PAIRS)
    assert not gc.isenabled()


def test_no_collection_runs_inside_discover_on_a_wide_input(restore_gc):
    """300 rows of length 20-35: about 17k candidate transformations, enough
    for four full (generation 2) collections in one call with the collector
    on."""
    pair, _ = generate_table_pair(
        SyntheticConfig(num_rows=300, min_length=20, max_length=35, seed=1)
    )
    pairs = pairs_from_strings(pair.golden_string_pairs())
    engine = TransformationDiscovery(DiscoveryConfig(num_workers=1))
    generations: list[int] = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.enable()
    gc.callbacks.append(record)
    try:
        result = engine.discover(pairs)
    finally:
        gc.callbacks.remove(record)
    assert result.cover_coverage == 1.0
    assert result.stats.unique_transformations > 10_000
    assert generations == []
