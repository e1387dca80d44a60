"""Every join route against the oracle: the one-at-a-time join loop.

A route returns the joined ``(source_row, target_row)`` pairs in order
and, for each pair, the ``repr`` of the first transformation that made it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import strategies as st
from oracles.join import join_values_reference

from differential.strategies import (
    CELL,
    SOURCE,
    TRANSFORMATIONS,
    model_of,
    reloaded,
    run_examples,
    targets_for,
)
from repro.core.transformation import Transformation
from repro.core.units import Literal
from repro.join.joiner import TransformationJoiner
from repro.serve.engine import ServeEngine
from repro.serve.registry import ModelRegistry


def labelled(result):
    return result.pairs, [repr(result.matched_by[pair]) for pair in result.pairs]


def joined(joiner_of):
    def route(transformations, sources, targets):
        # No small-input fast path: tiny inputs shard too.
        with mock.patch.dict(os.environ, {"REPRO_MIN_ROWS_PER_WORKER": "0"}):
            return labelled(joiner_of(transformations).join_values(sources, targets))

    return route


def served(transformations, sources, targets):
    with tempfile.TemporaryDirectory() as directory:
        model_of(transformations).save(Path(directory) / "model.json")
        engine = ServeEngine(ModelRegistry(directory, num_workers=1))
        response = engine.join("model", sources, targets)
    return response.pairs, response.matched_by


def joiner(workers):
    return lambda ts: TransformationJoiner(ts, num_workers=workers)


ROUTES = [
    pytest.param(1, joined(joiner(1)), id="live"),
    pytest.param(2, joined(joiner(2)), id="sharded"),
    pytest.param(
        1, joined(lambda ts: reloaded(ts).joiner(num_workers=1)), id="reloaded"
    ),
    pytest.param(1, served, id="served"),
]


@st.composite
def join_cases(draw):
    transformations = draw(TRANSFORMATIONS)
    if transformations:
        # Twins agree on every row, so first-match attribution picks the first.
        twins = draw(st.lists(st.sampled_from(transformations), max_size=2))
        transformations = transformations + [
            Transformation(t.units + (Literal(""),)) for t in twins
        ]
    sources = draw(st.lists(SOURCE, max_size=10))
    targets = [draw(targets_for(s, transformations)) for s in sources]
    targets += draw(st.lists(CELL, max_size=3))
    return transformations, sources, draw(st.permutations(targets))


@pytest.mark.parametrize("workers, route", ROUTES)
def test_route_matches_join_loop(workers, route):
    def check(case):
        transformations, sources, targets = case
        expected = join_values_reference(
            TransformationJoiner(transformations), sources, targets
        )
        assert route(transformations, sources, targets) == labelled(expected)

    run_examples(join_cases(), check, pooled=workers > 1)
