"""Checked-in models still load and join as they did when they were saved.

Each directory under ``tests/golden/`` holds a model saved with
``SCHEMA_VERSION`` 1, the CSV pair it joins (column ``join`` on both
sides) and ``expected.json``: the joined ``(source_row, target_row)`` pairs
in order, and the sha256 of the CSV that ``repro apply`` writes.

* ``staff-name-email-01`` is the pair ``repro benchmark web --scale 0.2``
  generates (seed 0), with the model ``repro fit --source-column join
  --target-column join --save`` learns from it: 3 transformations over 17
  candidate pairs, 17 joined pairs.
* ``five-units`` is a model of explicit transformations that together use
  every unit class, with a small pair that each of them joins.

A change to a unit's fields, to the model format or to the join rule fails
here, whatever the code that saves models now writes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.join.pipeline import JoinPipeline
from repro.model.artifact import TransformationModel
from repro.table.io import read_csv

GOLDEN = Path(__file__).resolve().parents[1] / "golden"
CASES = sorted(path.name for path in GOLDEN.iterdir() if path.is_dir())


def _expected(name: str) -> dict:
    return json.loads((GOLDEN / name / "expected.json").read_text(encoding="utf-8"))


def test_every_unit_class_is_in_a_golden_model():
    units = {
        type(unit).__name__
        for name in CASES
        for transformation in TransformationModel.load(
            GOLDEN / name / "model.json"
        ).transformations
        for unit in transformation.units
    }
    assert units == {"Literal", "Substr", "Split", "SplitSubstr", "TwoCharSplitSubstr"}


@pytest.mark.parametrize("name", CASES)
def test_the_model_file_is_what_save_writes_today(name):
    # The writer's format must not drift from a saved file either.
    path = GOLDEN / name / "model.json"
    assert TransformationModel.load(path).dumps() == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", CASES)
def test_pipeline_apply_joins_the_recorded_pairs(name):
    directory = GOLDEN / name
    model = TransformationModel.load(directory / "model.json")
    applied = JoinPipeline().apply(
        model,
        read_csv(directory / "source.csv"),
        read_csv(directory / "target.csv"),
        source_column="join",
        target_column="join",
    )
    assert [list(pair) for pair in applied.join.pairs] == _expected(name)["pairs"]


@pytest.mark.parametrize("name", CASES)
def test_repro_apply_writes_the_recorded_csv(name, tmp_path, capsys):
    directory = GOLDEN / name
    output = tmp_path / "joined.csv"
    status = main(
        [
            "apply",
            str(directory / "source.csv"),
            str(directory / "target.csv"),
            "--model",
            str(directory / "model.json"),
            "--source-column",
            "join",
            "--target-column",
            "join",
            "--output",
            str(output),
        ]
    )
    assert status == 0, capsys.readouterr().err
    expected = _expected(name)
    assert f"joined rows: {len(expected['pairs'])}" in capsys.readouterr().out
    digest = hashlib.sha256(output.read_bytes()).hexdigest()
    assert digest == expected["apply_csv_sha256"]
