"""Every apply route against the oracle ``Transformation.apply``.

A route maps a transformation's index to its ``(row, output)`` pairs, rows
ascending, leaving out the rows it does not apply to and, when the route
is given *within*, every output not in it.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest
from hypothesis import strategies as st

from differential.strategies import SOURCE, TRANSFORMATIONS, reloaded, run_examples
from repro.model import TransformationApplier
from repro.model import apply as model_apply


def transformed(workers, block_rows=model_apply._BLOCK_ROWS, reload=False):
    def route(transformations, values, within):
        if reload:
            transformations = reloaded(transformations).transformations
        # No small-input fast path: tiny inputs shard too.
        with mock.patch.object(model_apply, "_BLOCK_ROWS", block_rows), mock.patch.dict(
            os.environ, {"REPRO_MIN_ROWS_PER_WORKER": "0"}
        ):
            return TransformationApplier(transformations).transform_rows(
                values, num_workers=workers, within=within
            )

    return route


# (workers, route, whether the route is given a within set)
ROUTES = [
    pytest.param(1, transformed(1), False, id="serial"),
    pytest.param(2, transformed(2), False, id="sharded-2"),
    pytest.param(3, transformed(3), False, id="sharded-3"),
    pytest.param(1, transformed(1), True, id="within"),
    pytest.param(1, transformed(1, block_rows=1), False, id="blocks-1"),
    pytest.param(1, transformed(1, block_rows=3), True, id="blocks-3-within"),
    pytest.param(1, transformed(1, reload=True), False, id="reloaded"),
]


@pytest.mark.parametrize("workers, route, given_within", ROUTES)
def test_route_matches_apply(workers, route, given_within):
    def check(case):
        transformations, values = case
        outputs = [
            [
                (row, out)
                for row, out in enumerate(map(t.apply, values))
                if out is not None
            ]
            for t in transformations
        ]
        within = None
        if given_within:
            # Every other distinct output, and one that no row produces.
            produced = sorted({out for pairs in outputs for _, out in pairs})
            within = set(produced[::2]) | {"\x00"}
        expected = {
            index: kept
            for index, pairs in enumerate(outputs)
            if (kept := [p for p in pairs if within is None or p[1] in within])
        }
        assert route(transformations, values, within) == expected

    inputs = st.tuples(TRANSFORMATIONS, st.lists(SOURCE, max_size=12))
    run_examples(inputs, check, pooled=workers > 1)
