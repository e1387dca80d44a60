"""Property tests: model round-trips apply byte-identically, serial and sharded.

The artifact layer's contract is that ``loads(dumps(model))`` is
indistinguishable from the live object at apply time: same outputs for every
transformation on every input, same joined pairs through the batched apply
engine at any worker count.  These tests generate random transformations
(random unit sequences, not just discovery-shaped ones) and assert exactly
that.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transformation import Transformation
from repro.core.units import Literal, Split, SplitSubstr, Substr
from repro.join.joiner import TransformationJoiner
from repro.matching.index import ValueIndex
from repro.model import TransformationApplier, TransformationModel

TEXT = st.text(alphabet=string.ascii_letters + string.digits + " ,.-@/", max_size=30)
DELIMITER = st.sampled_from(list(" ,.-@/"))


@st.composite
def units(draw):
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return Literal(draw(TEXT))
    if kind == 1:
        start = draw(st.integers(min_value=0, max_value=8))
        return Substr(start, draw(st.integers(min_value=start + 1, max_value=12)))
    if kind == 2:
        return Split(draw(DELIMITER), draw(st.integers(min_value=1, max_value=4)))
    start = draw(st.integers(min_value=0, max_value=5))
    return SplitSubstr(
        draw(DELIMITER),
        draw(st.integers(min_value=1, max_value=4)),
        start,
        draw(st.integers(min_value=start + 1, max_value=8)),
    )


TRANSFORMATIONS = st.builds(
    Transformation, st.lists(units(), min_size=1, max_size=4)
)


@st.composite
def models(draw):
    transformations = draw(
        st.lists(TRANSFORMATIONS, min_size=1, max_size=6, unique=True)
    )
    num_pairs = draw(st.integers(min_value=1, max_value=50))
    counts = [
        draw(st.integers(min_value=0, max_value=num_pairs))
        for _ in transformations
    ]
    min_support = draw(st.sampled_from([0.0, 0.05, 0.5]))
    return TransformationModel(
        transformations=transformations,
        coverage_counts=counts,
        num_candidate_pairs=num_pairs,
        min_support=min_support,
    )


class TestModelRoundTrip:
    @given(model=models())
    def test_loads_dumps_is_identity(self, model):
        assert TransformationModel.loads(model.dumps()) == model

    @given(model=models(), sources=st.lists(TEXT, max_size=8))
    @settings(max_examples=50)
    def test_round_tripped_transformations_apply_identically(self, model, sources):
        clone = TransformationModel.loads(model.dumps())
        for original, loaded in zip(model.transformations, clone.transformations):
            for source in sources:
                assert loaded.apply(source) == original.apply(source)

    @given(model=models())
    def test_dict_round_trip_preserves_counts_and_config(self, model):
        clone = TransformationModel.from_dict(model.to_dict())
        assert clone.coverage_counts == model.coverage_counts
        assert clone.num_candidate_pairs == model.num_candidate_pairs
        assert clone.min_support == model.min_support
        assert clone.discovery_config == model.discovery_config


class TestApplierEquivalence:
    @given(
        transformations=st.lists(TRANSFORMATIONS, min_size=1, max_size=5),
        sources=st.lists(TEXT, min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_apply_matches_reference(self, transformations, sources):
        # The trie-compiled kernel must reproduce Transformation.apply for
        # every (transformation, row) combination.
        dense = TransformationApplier(transformations).apply_all(sources)
        for transformation, row_outputs in zip(transformations, dense):
            assert row_outputs == [transformation.apply(s) for s in sources]

    @given(
        transformations=st.lists(TRANSFORMATIONS, min_size=1, max_size=4),
        sources=st.lists(TEXT, min_size=1, max_size=10),
        num_workers=st.sampled_from([2, 3]),
    )
    @settings(max_examples=15, deadline=None)
    def test_sharded_apply_is_byte_identical(
        self, transformations, sources, num_workers
    ):
        applier = TransformationApplier(transformations)
        serial = applier.transform_rows(sources)
        sharded = applier.transform_rows(
            sources, num_workers=num_workers, min_rows_per_worker=0
        )
        assert sharded == serial


class TestSpawnFallback:
    def test_spawn_transform_rows_matches_serial(self, monkeypatch):
        # The pickle-once fallback: the frozen trie and the value list ship
        # to spawn workers as the plain state tuple of transform_rows.
        transformations = [
            Transformation([SplitSubstr(" ", 2, 0, 1), Literal(" "), Split(",", 1)]),
            Transformation([Split(",", 2)]),
            Transformation([Substr(0, 4)]),
        ]
        values = [f"last{i:02d}, first{i:02d}" for i in range(40)]
        applier = TransformationApplier(transformations)
        serial = applier.transform_rows(values)
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        spawned = applier.transform_rows(
            values, num_workers=2, min_rows_per_worker=0
        )
        assert spawned == serial

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_sharded_transform_rows_within_matches_serial(
        self, monkeypatch, start_method
    ):
        # within travels in the shards' state tuple: the joiner's container
        # (the target ValueIndex itself) ships to spawned workers too.
        transformations = [
            Transformation([SplitSubstr(" ", 2, 0, 1), Literal(" "), Split(",", 1)]),
            Transformation([Split(",", 2)]),
            Transformation([Substr(0, 4)]),
        ]
        values = [f"last{i:02d}, first{i:02d}" for i in range(40)]
        within = ValueIndex.build(
            ["f last03", " first07", "last", "nowhere", "f last39"]
        )
        applier = TransformationApplier(transformations)
        serial = applier.transform_rows(values, within=within)
        assert sorted(serial) == [0, 1, 2]
        monkeypatch.setenv("REPRO_START_METHOD", start_method)
        sharded = applier.transform_rows(
            values, num_workers=2, min_rows_per_worker=0, within=within
        )
        assert sharded == serial


class TestJoinerEquivalence:
    @given(
        transformations=st.lists(TRANSFORMATIONS, min_size=1, max_size=4),
        sources=st.lists(TEXT, min_size=1, max_size=10),
        targets=st.lists(TEXT, min_size=1, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_join_matches_reference_loop(
        self, transformations, sources, targets
    ):
        joiner = TransformationJoiner(transformations)
        batched = joiner.join_values(sources, targets)
        reference = joiner.join_values_reference(sources, targets)
        assert batched.pairs == reference.pairs
        assert batched.matched_by == reference.matched_by

    @given(
        transformations=st.lists(TRANSFORMATIONS, min_size=1, max_size=3),
        sources=st.lists(TEXT, min_size=1, max_size=8),
        targets=st.lists(TEXT, min_size=1, max_size=8),
    )
    @settings(max_examples=10, deadline=None)
    def test_sharded_join_of_a_loaded_model_matches_live(
        self, transformations, sources, targets
    ):
        # The full artifact contract in one assertion: persist, reload,
        # shard — the joined pairs never change.
        live = TransformationJoiner(transformations)
        model = TransformationModel(
            transformations=transformations,
            coverage_counts=[0] * len(transformations),
            num_candidate_pairs=1,
        )
        loaded = TransformationModel.loads(model.dumps())
        sharded = TransformationJoiner(
            loaded.transformations, num_workers=2, min_rows_per_worker=0
        )
        assert (
            sharded.join_values(sources, targets).pairs
            == live.join_values_reference(sources, targets).pairs
        )
