"""Unit tests for the artifact layer (repro.model)."""

from __future__ import annotations

import json
from time import monotonic

import pytest
from oracles.join import join_values_reference

from repro.core.config import DiscoveryConfig
from repro.core.coverage import CoverageComputer, _build_unit_trie
from repro.core.discovery import TransformationDiscovery
from repro.core.pairs import pairs_from_strings
from repro.core.transformation import Transformation
from repro.core.units import Literal, Split, SplitSubstr, Substr, TwoCharSplitSubstr
from repro.join.joiner import TransformationJoiner
from repro.model import (
    FORMAT_NAME,
    SCHEMA_VERSION,
    ModelFormatError,
    SchemaVersionError,
    TransformationApplier,
    TransformationModel,
    config_from_dict,
    config_to_dict,
    transformation_from_dict,
    transformation_to_dict,
    unit_from_dict,
    unit_to_dict,
)
from repro.model import apply as model_apply
from repro.parallel import ShardError
from repro.parallel.errors import DeadlineExceededError

ALL_UNITS = [
    Literal("x-"),
    Literal(""),
    Substr(0, 3),
    Split(",", 1),
    SplitSubstr(" ", 2, 0, 1),
    TwoCharSplitSubstr("-", "/", 2, 0, 2),
]


class TestUnitSerialization:
    @pytest.mark.parametrize("unit", ALL_UNITS, ids=lambda u: u.describe())
    def test_round_trip(self, unit):
        clone = unit_from_dict(unit_to_dict(unit))
        assert clone == unit
        for source in ("Rafiei, Davood", "a-b/c", "", "x"):
            assert clone.apply(source) == unit.apply(source)

    def test_payload_is_json_able(self):
        for unit in ALL_UNITS:
            assert unit_from_dict(json.loads(json.dumps(unit_to_dict(unit)))) == unit

    def test_unknown_unit_type_rejected(self):
        with pytest.raises(ModelFormatError, match="unknown unit type"):
            unit_from_dict({"unit": "Regex", "pattern": ".*"})

    def test_missing_and_extra_fields_rejected(self):
        with pytest.raises(ModelFormatError, match="requires fields"):
            unit_from_dict({"unit": "Substr", "start": 0})
        with pytest.raises(ModelFormatError, match="requires fields"):
            unit_from_dict({"unit": "Substr", "start": 0, "end": 2, "step": 1})

    def test_invalid_field_values_rejected(self):
        # Deserialization re-runs the unit validators, so a hand-edited file
        # cannot smuggle in an out-of-range unit.
        with pytest.raises(ModelFormatError, match="invalid Substr"):
            unit_from_dict({"unit": "Substr", "start": 2, "end": 1})
        with pytest.raises(ModelFormatError, match="invalid Split"):
            unit_from_dict({"unit": "Split", "delimiter": "", "index": 1})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ModelFormatError):
            unit_from_dict(["Substr", 0, 1])

    def test_non_string_unit_name_rejected(self):
        # An unhashable name must not escape as a raw TypeError.
        with pytest.raises(ModelFormatError, match="unit type must be a string"):
            unit_from_dict({"unit": ["Split"], "delimiter": ",", "index": 1})

    def test_wrong_typed_field_values_rejected(self):
        # Range validators alone would let these through (a dict is truthy,
        # True is an int) and blow up much later at apply time.
        with pytest.raises(ModelFormatError, match="delimiter"):
            unit_from_dict({"unit": "Split", "delimiter": {"a": 1}, "index": 1})
        with pytest.raises(ModelFormatError, match="index"):
            unit_from_dict({"unit": "Split", "delimiter": ",", "index": True})
        with pytest.raises(ModelFormatError, match="start"):
            unit_from_dict({"unit": "Substr", "start": "0", "end": 2})

    def test_unregistered_subclass_not_serializable(self):
        class Sneaky(Literal):
            pass

        with pytest.raises(ModelFormatError, match="unregistered"):
            unit_to_dict(Sneaky("x"))


class TestTransformationSerialization:
    def test_round_trip(self):
        transformation = Transformation(
            [SplitSubstr(" ", 2, 0, 1), Literal(" "), Split(",", 1)]
        )
        clone = transformation_from_dict(transformation_to_dict(transformation))
        assert clone == transformation
        assert clone.apply("Rafiei, Davood") == transformation.apply("Rafiei, Davood")

    def test_empty_payload_rejected(self):
        with pytest.raises(ModelFormatError, match="non-empty list"):
            transformation_from_dict([])
        with pytest.raises(ModelFormatError, match="non-empty list"):
            transformation_from_dict({"units": []})

    def test_non_object_unit_entry_rejected(self):
        with pytest.raises(ModelFormatError, match="unit payload must be an object"):
            transformation_from_dict([unit_to_dict(Substr(0, 1)), "Literal"])


class TestConfigSerialization:
    def test_default_round_trip(self):
        config = DiscoveryConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_custom_round_trip(self):
        config = DiscoveryConfig(
            max_placeholders=4,
            enabled_units=("Literal", "Substr"),
            sample_size=100,
            min_support=3,
            case_insensitive=True,
            num_workers=2,
        )
        clone = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert clone == config
        assert clone.enabled_units == ("Literal", "Substr")

    def test_unknown_fields_rejected(self):
        with pytest.raises(ModelFormatError, match="unknown discovery_config"):
            config_from_dict({"warp_factor": 9})

    def test_invalid_values_rejected(self):
        with pytest.raises(ModelFormatError, match="invalid discovery_config"):
            config_from_dict({"max_placeholders": 0})

    @pytest.mark.parametrize("payload", [[], "max_placeholders=3", None])
    def test_non_object_payload_rejected(self, payload):
        with pytest.raises(ModelFormatError, match="must be an object"):
            config_from_dict(payload)

    def test_tuples_serialize_as_json_lists(self):
        payload = config_to_dict(DiscoveryConfig(enabled_units=("Literal", "Split")))
        assert payload["enabled_units"] == ["Literal", "Split"]
        assert config_from_dict({}) == DiscoveryConfig()


@pytest.fixture
def fitted_model(name_initial_pairs) -> TransformationModel:
    engine = TransformationDiscovery()
    result = engine.discover_from_strings(name_initial_pairs)
    return TransformationModel.from_discovery(
        result, config=engine.config, min_support=0.05
    )


class TestTransformationModel:
    def test_from_discovery_carries_cover_and_counts(
        self, fitted_model, name_initial_pairs
    ):
        assert fitted_model.num_transformations >= 1
        assert fitted_model.num_candidate_pairs == len(name_initial_pairs)
        assert len(fitted_model.coverage_counts) == fitted_model.num_transformations
        assert fitted_model.discovery is not None
        assert fitted_model.stats["num_pairs"] == len(name_initial_pairs)
        assert all(
            0.0 <= count / fitted_model.num_candidate_pairs <= 1.0
            for count in fitted_model.coverage_counts
        )

    def test_dict_round_trip(self, fitted_model):
        clone = TransformationModel.from_dict(fitted_model.to_dict())
        assert clone == fitted_model
        assert clone.discovery is None  # the live result never serializes

    def test_json_round_trip_applies_identically(self, fitted_model):
        clone = TransformationModel.loads(fitted_model.dumps())
        assert clone == fitted_model
        for original, loaded in zip(
            fitted_model.transformations, clone.transformations
        ):
            for source in ("Nascimento, Mario", "no delimiters here", ""):
                assert loaded.apply(source) == original.apply(source)

    def test_save_load_round_trip(self, fitted_model, tmp_path):
        path = fitted_model.save(tmp_path / "model.json")
        assert path.exists()
        assert TransformationModel.load(path) == fitted_model

    def test_save_is_atomic_and_overwrites(self, fitted_model, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("previous content", encoding="utf-8")
        fitted_model.save(path)
        # The temp file never lingers and the target is fully replaced.
        assert list(tmp_path.iterdir()) == [path]
        assert TransformationModel.load(path) == fitted_model

    def test_describe_mentions_cover(self, fitted_model):
        description = fitted_model.describe()
        assert "transformations" in description
        assert "covers" in description

    def test_misaligned_counts_rejected(self, fitted_model):
        with pytest.raises(ValueError, match="coverage counts"):
            TransformationModel(
                transformations=fitted_model.transformations,
                coverage_counts=fitted_model.coverage_counts + [1],
                num_candidate_pairs=5,
            )

    def test_bad_min_support_rejected(self, fitted_model):
        with pytest.raises(ValueError, match="min_support"):
            TransformationModel(
                transformations=fitted_model.transformations,
                coverage_counts=fitted_model.coverage_counts,
                num_candidate_pairs=5,
                min_support=1.5,
            )

    def test_joiner_is_memoized_per_worker_knobs(self, fitted_model):
        # The fit-once / apply-many path must compile the trie once per
        # model, not once per batch: same knobs -> the same joiner object.
        assert fitted_model.joiner() is fitted_model.joiner()
        assert fitted_model.joiner(num_workers=2) is fitted_model.joiner(
            num_workers=2
        )
        assert fitted_model.joiner() is not fitted_model.joiner(num_workers=2)

    def test_joiner_filters_by_stored_support(self, fitted_model, name_initial_pairs):
        # The model-backed joiner must reproduce the coverage_results-backed
        # filtering of the one-shot pipeline exactly.
        discovery = fitted_model.discovery
        assert discovery is not None
        reference = TransformationJoiner(
            discovery.transformations,
            min_support=fitted_model.min_support,
            coverage_results=discovery.cover,
            num_candidate_pairs=discovery.num_candidate_pairs,
        )
        from_model = fitted_model.joiner()
        assert from_model.transformations == reference.transformations


class TestModelFormatErrors:
    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            TransformationModel.load(path)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ModelFormatError, match="must be an object"):
            TransformationModel.loads("[1, 2, 3]")

    def test_foreign_json_rejected(self):
        with pytest.raises(ModelFormatError, match="not a transformation model"):
            TransformationModel.loads('{"hello": "world"}')

    def test_schema_version_mismatch_rejected(self, fitted_model):
        payload = fitted_model.to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaVersionError, match="unsupported model schema"):
            TransformationModel.from_dict(payload)
        payload["schema_version"] = None
        with pytest.raises(SchemaVersionError):
            TransformationModel.from_dict(payload)

    def test_schema_error_is_a_format_error(self):
        # Callers catching ModelFormatError handle both failure modes.
        assert issubclass(SchemaVersionError, ModelFormatError)

    def test_missing_keys_rejected(self):
        with pytest.raises(ModelFormatError, match="missing keys"):
            TransformationModel.from_dict(
                {"format": FORMAT_NAME, "schema_version": SCHEMA_VERSION}
            )

    def test_bad_cover_entries_rejected(self, fitted_model):
        payload = fitted_model.to_dict()
        payload["cover"] = [{"coverage": 3}]
        with pytest.raises(ModelFormatError, match="cover entries"):
            TransformationModel.from_dict(payload)
        payload["cover"] = "everything"
        with pytest.raises(ModelFormatError, match="cover must be a list"):
            TransformationModel.from_dict(payload)

    def test_bad_coverage_count_rejected(self, fitted_model):
        payload = fitted_model.to_dict()
        payload["cover"][0]["coverage"] = "many"
        with pytest.raises(ModelFormatError, match="coverage must be an integer"):
            TransformationModel.from_dict(payload)

    def test_negative_counts_rejected(self, fitted_model):
        payload = fitted_model.to_dict()
        payload["cover"][0]["coverage"] = -2
        with pytest.raises(ModelFormatError, match="invalid model payload"):
            TransformationModel.from_dict(payload)

    def test_non_integer_candidate_pairs_rejected(self, fitted_model):
        payload = fitted_model.to_dict()
        payload["num_candidate_pairs"] = 2.5
        with pytest.raises(ModelFormatError, match="num_candidate_pairs"):
            TransformationModel.from_dict(payload)
        payload["num_candidate_pairs"] = True
        with pytest.raises(ModelFormatError, match="num_candidate_pairs"):
            TransformationModel.from_dict(payload)

    def test_inconsistent_support_payload_rejected(self, fitted_model):
        # min_support > 0 with a non-empty cover but no candidate pairs is
        # unconstructible by fit; loading it must fail cleanly instead of
        # blowing up at joiner-construction time.
        payload = fitted_model.to_dict()
        payload["num_candidate_pairs"] = 0
        assert payload["min_support"] > 0 and payload["cover"]
        with pytest.raises(ModelFormatError, match="inconsistent model"):
            TransformationModel.from_dict(payload)

    def test_non_numeric_min_support_rejected(self, fitted_model):
        # A hand-edited `"min_support": true` would satisfy the 0 <= x <= 1
        # range check and silently filter everything; strict parsing refuses.
        payload = fitted_model.to_dict()
        payload["min_support"] = True
        with pytest.raises(ModelFormatError, match="min_support"):
            TransformationModel.from_dict(payload)
        payload["min_support"] = "none"
        with pytest.raises(ModelFormatError, match="min_support"):
            TransformationModel.from_dict(payload)


class TestTransformationApplier:
    def test_matches_reference_apply(self, name_initial_pairs):
        result = TransformationDiscovery().discover_from_strings(name_initial_pairs)
        transformations = [r.transformation for r in result.cover]
        applier = TransformationApplier(transformations)
        values = [source for source, _ in name_initial_pairs] + ["held-out, row"]
        outputs = applier.transform_rows(values)
        for index, transformation in enumerate(transformations):
            assert outputs.get(index, []) == [
                (row, output)
                for row, value in enumerate(values)
                if (output := transformation.apply(value)) is not None
            ]

    def test_empty_inputs(self):
        applier = TransformationApplier([])
        assert applier.transform_rows(["a", "b"]) == {}
        applier = TransformationApplier([Transformation([Substr(0, 2)])])
        assert applier.transform_rows([]) == {}

    def test_non_applicable_rows_absent_from_sparse_output(self):
        applier = TransformationApplier([Transformation([Split(",", 2)])])
        outputs = applier.transform_rows(["a,b", "plain", "c,d"])
        assert outputs == {0: [(0, "b"), (2, "d")]}

    def test_shared_prefixes_share_output(self):
        # Two transformations sharing a first unit must agree with their
        # one-at-a-time semantics even though the prefix is evaluated once.
        first = Transformation([Split(",", 1), Literal("!")])
        second = Transformation([Split(",", 1), Literal("?")])
        applier = TransformationApplier([first, second])
        outputs = applier.transform_rows(["a,b", "nope"])
        assert outputs == {0: [(0, "a!")], 1: [(0, "a?")]}

    @pytest.mark.parametrize(
        "compile_transformations",
        [
            TransformationApplier,
            CoverageComputer(pairs_from_strings([("ab", "<AB")])).coverage_of_all,
        ],
        ids=["applier", "coverage"],
    )
    def test_unit_subclass_does_not_compile(self, compile_transformations):
        # The trie walks evaluate opcodes, never apply(): an overriding
        # subclass must fail loudly, not walk as its base class.
        class UpperSubstr(Substr):
            def apply(self, source: str) -> str | None:
                output = super().apply(source)
                return None if output is None else output.upper()

        with pytest.raises(TypeError, match="UpperSubstr"):
            compile_transformations(
                [Transformation([Literal("<"), UpperSubstr(0, 2)])]
            )

    def test_sharded_deadline_reaches_the_workers(self, monkeypatch):
        # The deadline travels to the workers in the shards' state: expired,
        # every shard refuses to run (complete-or-error, never a prefix);
        # generous, the outputs equal the serial walk's.
        applier = TransformationApplier([Transformation([Split(",", 2)])])
        values = [f"a{i},b{i}" for i in range(40)]
        monkeypatch.setenv("REPRO_MIN_ROWS_PER_WORKER", "0")
        sharded = {"num_workers": 2}
        with pytest.raises(ShardError) as raised:
            applier.transform_rows(values, deadline=monotonic() - 1.0, **sharded)
        assert isinstance(raised.value.cause, DeadlineExceededError)
        generous = applier.transform_rows(
            values, deadline=monotonic() + 60.0, **sharded
        )
        assert generous == applier.transform_rows(values)


#: Every opcode of the walker, with prefixes that some rows do not reach.
WALKER_TRANSFORMATIONS = [
    Transformation([Split(",", 2), Literal(" "), SplitSubstr(" ", 1, 0, 2)]),
    Transformation([Split(",", 2), Literal("!")]),
    Transformation([Substr(0, 3), Literal("-"), Split(" ", 2)]),
    Transformation([Literal("id:"), Substr(2, 6)]),
    Transformation([TwoCharSplitSubstr("-", "/", 2, 0, 2)]),
    Transformation([TwoCharSplitSubstr("--", "/", 1, 0, 1), Split(" ", 1)]),
]


def _walker_values(rows: int) -> list[str]:
    shapes = ["last{0}, first{0}", "x{0}", "a-b/{0} c", "{0} y,z w", "--{0}/q"]
    return [shapes[row % 5].format(row) for row in range(rows)]


def _oracle(transformations, values, row_offset=0, within=None):
    expected = {}
    for index, transformation in enumerate(transformations):
        pairs = [
            (row_offset + slot, output)
            for slot, value in enumerate(values)
            if (output := transformation.apply(value)) is not None
            and (within is None or output in within)
        ]
        if pairs:
            expected[index] = pairs
    return expected


class TestColumnWalker:
    @pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
    def test_block_boundaries(self, rows):
        # 1,024 rows per block: a partial block, one exact block, one row
        # over, and two full blocks plus one row.
        values = _walker_values(rows)
        trie = _build_unit_trie(WALKER_TRANSFORMATIONS)
        expected = _oracle(WALKER_TRANSFORMATIONS, values, 7)
        assert model_apply.transform_trie_rows(values, 7, trie) == expected
        # Each transformation's first and last outputs: the first and the
        # last block both keep some pairs and drop the rest.
        within = {pairs[0][1] for pairs in expected.values()}
        within |= {pairs[-1][1] for pairs in expected.values()} | {"nowhere"}
        assert model_apply.transform_trie_rows(
            values, 7, trie, within=within
        ) == _oracle(WALKER_TRANSFORMATIONS, values, 7, within)

    def test_deadline_expiring_after_the_first_block_raises(self, monkeypatch):
        # The clock reads before the deadline at the first block boundary
        # and after it at the second: one block is walked, then the walk
        # raises instead of returning a prefix.
        clock = iter([0.0, 100.0])
        monkeypatch.setattr(model_apply, "monotonic", lambda: next(clock))
        walked = []
        walk_block = model_apply._walk_block
        monkeypatch.setattr(
            model_apply,
            "_walk_block",
            lambda block, *args: walked.append(len(block)) or walk_block(block, *args),
        )
        trie = _build_unit_trie(WALKER_TRANSFORMATIONS)
        with pytest.raises(DeadlineExceededError, match="after 1024 of 2049 rows"):
            model_apply.transform_trie_rows(
                _walker_values(2049), 0, trie, deadline=50.0
            )
        assert walked == [1024]


class TestLowercaseTargetIndex:
    def test_case_insensitive_prebuilt_index_joins_like_the_reference(self):
        # A case-insensitive joiner's own prebuilt index: the walker must
        # keep every output that matches a target once both are lower-cased.
        transformations = [
            Transformation([Split(" ", 1)]),
            Transformation([Substr(0, 1), Literal("."), Split(" ", 2)]),
        ]
        sources = ["Ann Lee", "bob KAY", "Carl Moe", "dee"] * 20
        targets = ["ann", "B.KAY", "carl", "C.Moe", "Dee", "x"]
        folded = TransformationJoiner(transformations, case_insensitive=True)
        index = folded.build_target_index(targets)
        result = folded.join_values(sources, targets, target_index=index)
        reference = join_values_reference(folded, sources, targets)
        assert (1, 1) in result.pairs and (0, 0) in result.pairs
        assert result.pairs == reference.pairs
        assert result.matched_by == reference.matched_by
        # The case-sensitive reference joins fewer rows on the same input.
        exact = join_values_reference(
            TransformationJoiner(transformations), sources, targets
        )
        assert set(exact.pairs) < set(result.pairs)
