"""Tests of the benchmark itself, on seconds-long versions of its workloads.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import run, serveload  # noqa: E402
from perfbench.workloads import END_TO_END, PER_LAYER, SPECS, tiny  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, tmp_path: Path, *, trace: bool) -> tuple[dict, dict]:
    return run.run(workload, 7, 0.2, trace, spec=tiny(SPECS[workload]), out_dir=tmp_path)


def test_declared_names_and_units_are_valid():
    declared = _benchmark_json()
    assert [w["name"] for w in declared["workloads"]] == list(SPECS)
    for kind, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        entries = declared[kind]
        assert {e["name"]: e["unit"] for e in entries} == catalogue
        for entry in entries:
            assert NAME.match(entry["name"]), entry
            assert UNIT.match(entry["unit"]), entry
    names = [e["name"] for e in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < e["bound"] <= 0.25 for e in declared["end_to_end"])


@pytest.mark.parametrize("workload", list(SPECS))
def test_every_end_to_end_metric_is_emitted(workload, tmp_path):
    result, details = _run(workload, tmp_path, trace=False)
    assert result["correct"], details
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float | int) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", ["apply", "serve"])
def test_traced_run_emits_every_layer_metric_and_matches(workload, tmp_path):
    result, details = _run(workload, tmp_path, trace=True)
    assert result["correct"], details["checks"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    trace = json.loads((tmp_path.parent / details["trace_file"]).read_text())
    events = trace["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)


def test_wrong_serve_response_fails_the_run(tmp_path, monkeypatch):
    real_post = serveload._post
    calls = []

    def corrupting_post(*args, **kwargs):
        status, raw = real_post(*args, **kwargs)
        calls.append(1)
        if len(calls) == 5 and status == 200:
            payload = json.loads(raw)
            payload["pairs"] = payload["pairs"][1:] + [[0, 0]]
            raw = json.dumps(payload).encode()
        return status, raw

    monkeypatch.setattr(serveload, "_post", corrupting_post)
    spec = tiny(SPECS["serve"])
    # Verify every response, so the corrupted one is checked.
    spec = replace(spec, serve=replace(spec.serve, verify_every=1))
    result, details = run.run("serve", 7, 0.2, False, spec=spec, out_dir=tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("differs from offline" in failure for failure in details["failures"])


def test_child_spans_never_exceed_their_parent(tmp_path):
    result, details = _run("fit-wide", tmp_path, trace=True)
    assert result["correct"]
    events = json.loads((tmp_path.parent / details["trace_file"]).read_text())["traceEvents"]
    by_id = {event["args"]["id"]: event for event in events}
    children = 0
    for event in events:
        parent = event["args"]["parent"]
        if parent is None:
            continue
        children += 1
        outer = by_id[parent]
        assert outer["ts"] <= event["ts"] + 1e-3, event["name"]
        assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1e-3, event["name"]
    assert children > 0


def test_run_without_the_program_exits_non_zero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    process = subprocess.run(
        [sys.executable, *command[1:], "--workload", "fit-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode != 0
    assert process.stdout.strip() == ""
