"""Unit tests for numpy's absence and the plumbing that records the tier.

Five surfaces live here:

* what :func:`repro.kernels.active_tier` reports — always ``"python"``;
* where numpy runs — nowhere: no fit and no apply of any size imports it,
  and no module of ``src/`` imports it except the version probe;
* the bitset helpers of :mod:`repro.core.coverage` (the randomized sweep
  lives in ``tests/property/test_property_cover_selection.py``);
* the worker tuning, which ignores the tier;
* the absence of any tier override: the CLI takes no ``--kernels``.

Every test passes with and without numpy installed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.core.coverage import mask_from_rows, rows_from_mask
from repro.core.transformation import Transformation
from repro.core.units import Literal

SRC = str(Path(__file__).resolve().parents[2] / "src")

NUMPY_IMPORT = re.compile(r"^\s*(?:import|from)\s+numpy\b", re.MULTILINE)


def _block_numpy(directory: Path) -> None:
    """Make ``import numpy`` fail for interpreters with *directory* on the path."""
    stub = directory / "numpy"
    stub.mkdir()
    (stub / "__init__.py").write_text(
        'raise ImportError("numpy blocked for this test")\n', encoding="utf-8"
    )


def _run_python(code: str, *path_prefix: str, **env_overrides: str) -> str:
    """Run *code* in a fresh interpreter with ``src`` importable.

    *path_prefix* goes ahead of ``src`` and the inherited ``PYTHONPATH``.
    """
    inherited = [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([*path_prefix, SRC, *inherited]),
    )
    env.update(env_overrides)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return result.stdout.strip()


class TestTierResolution:
    def test_active_tier_is_a_known_tier(self):
        assert kernels.active_tier() == "python"

    def test_numpy_missing_is_python_tier(self, tmp_path):
        _block_numpy(tmp_path)
        out = _run_python(
            "from repro import kernels\n"
            "print(kernels.active_tier(), kernels.numpy_version())\n",
            str(tmp_path),
        )
        assert out == "python None"

    @pytest.mark.parametrize("setting", ["python", "cuda"])
    def test_repro_kernels_setting_is_ignored(self, setting):
        # The tier is what the host can run, never an override: a leftover
        # REPRO_KERNELS (even a value the old selector rejected) changes
        # nothing and raises nothing.
        out = _run_python(
            "from repro import kernels\nprint(kernels.active_tier())\n",
            REPRO_KERNELS=setting,
        )
        assert out == kernels.active_tier()

    def test_numpy_version_reported_regardless_of_tier(self):
        try:
            import numpy

            expected = str(numpy.__version__)
        except ImportError:
            expected = None
        assert kernels.numpy_version() == expected


class TestNumpyScope:
    def test_fit_imports_no_numpy(self):
        out = _run_python(
            "import sys\n"
            "from repro.datasets.synthetic import SyntheticConfig, "
            "generate_table_pair\n"
            "from repro.join.pipeline import JoinPipeline\n"
            "pair, _ = generate_table_pair(SyntheticConfig(num_rows=300, seed=3))\n"
            "model = JoinPipeline().fit(pair.source, pair.target, "
            "source_column=pair.source_column, "
            "target_column=pair.target_column)\n"
            "assert model.transformations\n"
            "print('numpy' in sys.modules)\n"
        )
        assert out == "False"

    def test_no_apply_imports_numpy(self):
        # A serve-style micro-batch and batches across the old 64-row
        # cutoff and the 1,024-row block all take the one Python walker.
        out = _run_python(
            "import sys\n"
            "from repro.datasets.synthetic import SyntheticConfig, "
            "generate_table_pair\n"
            "from repro.join.pipeline import JoinPipeline\n"
            "pair, _ = generate_table_pair(SyntheticConfig(num_rows=400, seed=3))\n"
            "columns = dict(source_column=pair.source_column, "
            "target_column=pair.target_column)\n"
            "pipeline = JoinPipeline(num_workers=1)\n"
            "model = pipeline.fit(pair.source, pair.target, **columns)\n"
            "from repro.table.table import Table\n"
            "values = pair.source[pair.source_column]\n"
            "for rows in (32, 64, 400, 1100):\n"
            "    batch = Table({pair.source_column: "
            "[values[row % 400] for row in range(rows)]})\n"
            "    result = pipeline.apply(model, batch, pair.target, **columns)\n"
            "    assert result.joined_pairs, rows\n"
            "print('numpy' in sys.modules)\n"
        )
        assert out == "False"

    def test_join_without_numpy_is_identical(self, tmp_path):
        # The joined pairs of an interpreter that cannot import numpy equal
        # this process's, whatever this process has installed.
        code = (
            "import json\n"
            "from repro.datasets.synthetic import SyntheticConfig, "
            "generate_table_pair\n"
            "from repro.join.pipeline import JoinPipeline\n"
            "from repro import kernels\n"
            "pair, _ = generate_table_pair(SyntheticConfig(num_rows=300, seed=4))\n"
            "columns = dict(source_column=pair.source_column, "
            "target_column=pair.target_column)\n"
            "pipeline = JoinPipeline(num_workers=1)\n"
            "model = pipeline.fit(pair.source, pair.target, **columns)\n"
            "result = pipeline.apply(model, pair.source, pair.target, **columns)\n"
            "print(json.dumps([kernels.active_tier(), "
            "sorted(list(p) for p in result.joined_pairs)]))\n"
        )
        with_numpy = json.loads(_run_python(code))
        _block_numpy(tmp_path)
        without_numpy = json.loads(_run_python(code, str(tmp_path)))
        assert without_numpy[0] == with_numpy[0] == "python"
        assert with_numpy[1]
        assert without_numpy[1] == with_numpy[1]

    def test_only_the_version_probe_imports_numpy(self):
        package = Path(SRC) / "repro"
        importers = sorted(
            path.relative_to(package).as_posix()
            for path in package.rglob("*.py")
            if NUMPY_IMPORT.search(path.read_text(encoding="utf-8"))
        )
        assert importers == ["kernels/__init__.py"]
        # ... and there only inside numpy_version(), after its def line.
        source = (package / "kernels" / "__init__.py").read_text(encoding="utf-8")
        imports = [match.start() for match in NUMPY_IMPORT.finditer(source)]
        probe = source.index("def numpy_version(")
        next_def = source.find("\ndef ", probe + 1)
        assert imports
        assert all(
            probe < start and (next_def == -1 or start < next_def)
            for start in imports
        )


class TestBitsetOps:
    MASKS = [0, 1, 0b1010, (1 << 100) | (1 << 3), (1 << 999) | 1]

    def test_roundtrip(self):
        rows = [0, 5, 63, 64, 65, 511, 512, 2000]
        mask = mask_from_rows(rows)
        assert rows_from_mask(mask) == rows
        assert mask.bit_count() == len(rows)

    def test_mask_from_rows_sets_exactly_the_row_bits(self):
        for rows in ([], [0], [0, 3, 100], list(range(0, 1500, 7))):
            assert mask_from_rows(rows) == sum(1 << row for row in rows)

    def test_mask_from_rows_ignores_order_and_duplicates(self):
        # Covered rows often arrive as a frozenset, in no particular order.
        assert mask_from_rows([100, 3, 0, 3]) == mask_from_rows([0, 3, 100])
        assert mask_from_rows(frozenset({9, 1, 4})) == 0b1000010010

    def test_rows_from_mask_lists_the_set_bits(self):
        for mask in self.MASKS:
            expected = [bit for bit in range(mask.bit_length()) if mask >> bit & 1]
            assert rows_from_mask(mask) == expected

    @pytest.mark.parametrize("num_rows", [2048, 25_000])
    def test_large_row_sets(self, num_rows):
        # Sizes where the deleted numpy helpers used to take over.
        rows = list(range(0, num_rows, 3))
        mask = mask_from_rows(rows)
        assert mask == sum(1 << row for row in rows)
        assert rows_from_mask(mask) == rows
        assert mask.bit_count() == len(rows)

    def test_cover_union_and_coverage(self):
        from repro.core.cover import covered_mask
        from repro.core.coverage import CoverageResult

        results = [
            CoverageResult(Transformation([Literal(str(i))]), covered_mask=mask)
            for i, mask in enumerate(self.MASKS)
        ]
        expected = 0
        for mask in self.MASKS:
            expected |= mask
        assert covered_mask(results) == expected
        assert covered_mask([]) == 0
        assert [result.coverage for result in results] == [
            len(rows_from_mask(mask)) for mask in self.MASKS
        ]


class TestWorkerTuning:
    def test_env_override_wins(self, monkeypatch):
        from repro.parallel.executor import tuned_num_workers

        monkeypatch.setenv("REPRO_MIN_ROWS_PER_WORKER", "10")
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert tuned_num_workers(4, 20) == 2

    def test_default_threshold_whether_or_not_numpy(self, monkeypatch):
        from repro.parallel.executor import (
            DEFAULT_MIN_ITEMS_PER_WORKER,
            tuned_num_workers,
        )

        monkeypatch.delenv("REPRO_MIN_ROWS_PER_WORKER", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert DEFAULT_MIN_ITEMS_PER_WORKER == 256
        # 600 rows: enough for 2 workers at 256 rows each, numpy or not.
        assert tuned_num_workers(4, 600) == 2
        assert tuned_num_workers(4, 1024) == 4

    def test_benchmark_speedup_layer_stays_serial(self, monkeypatch):
        # The benchmark records tuned_num_workers(2, 300) as its effective
        # worker count; with the default threshold that is one worker.
        from repro.parallel.executor import tuned_num_workers

        monkeypatch.delenv("REPRO_MIN_ROWS_PER_WORKER", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert tuned_num_workers(2, 300) == 1
        assert tuned_num_workers(2, 512) == 2


class TestNoTierSelection:
    def test_cli_has_no_kernels_flag(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "--kernels=python",
                    "discover",
                    "a.csv",
                    "b.csv",
                    "--source-column",
                    "v",
                    "--target-column",
                    "v",
                ]
            )
        assert "unrecognized arguments: --kernels=python" in capsys.readouterr().err

    def test_cli_run_leaves_the_environment_alone(self, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.table.io import write_csv
        from repro.table.table import Table

        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        source = tmp_path / "source.csv"
        target = tmp_path / "target.csv"
        write_csv(Table(columns={"v": ["ab cd", "xy zw"]}), source)
        write_csv(Table(columns={"v": ["ab", "xy"]}), target)
        before = dict(os.environ)
        exit_code = main(
            [
                "discover",
                str(source),
                str(target),
                "--source-column",
                "v",
                "--target-column",
                "v",
            ]
        )
        assert exit_code == 0
        assert dict(os.environ) == before
