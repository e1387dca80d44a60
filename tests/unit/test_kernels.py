"""Unit tests for the kernel tier: selection machinery, op duals, guards.

Three surfaces live here:

* the tier resolution of :mod:`repro.kernels` — probe, override, error
  cases, and the write-through/restore behaviour of ``use_tier``;
* fixed-case checks of every py/np op pair in :mod:`repro.kernels.bitset`
  (the randomized sweeps live in ``tests/property/test_property_kernels.py``);
* the plumbing that keeps benchmarks honest about the tier — the
  tier-aware worker tuning, the BENCH host block, the mixed-tier
  comparison rejection, and the ``--kernels`` CLI flags.

Every test must pass on both tiers: numpy-side cases skip themselves when
the numpy tier is not active (numpy missing, or ``REPRO_KERNELS=python``
as in the forced-fallback CI leg).
"""

from __future__ import annotations

import pytest

from repro import kernels
from repro.kernels import bitset


def _np_or_skip():
    np = kernels.numpy_or_none()
    if np is None:
        pytest.skip("numpy tier not active (numpy missing or forced python)")
    return np


@pytest.fixture
def restore_tier():
    """Re-resolve the tier after a test that mutated the environment."""
    yield
    kernels.refresh_tier()


class TestTierResolution:
    def test_active_tier_is_a_known_tier(self):
        assert kernels.active_tier() in ("python", "numpy")

    def test_use_tier_python_disables_numpy(self):
        import os

        with kernels.use_tier("python") as tier:
            assert tier == "python"
            assert kernels.active_tier() == "python"
            # The module handle must be withheld even when numpy is
            # importable — dispatchers key off numpy_or_none(), so this is
            # what makes the forced fallback actually take the python path.
            assert kernels.numpy_or_none() is None
            # Written through to the environment so spawn workers agree.
            assert os.environ.get("REPRO_KERNELS") == "python"
        assert kernels.active_tier() in ("python", "numpy")

    def test_use_tier_numpy_demands_numpy(self):
        try:
            import numpy  # noqa: F401

            has_numpy = True
        except ImportError:
            has_numpy = False
        if has_numpy:
            with kernels.use_tier("numpy"):
                assert kernels.active_tier() == "numpy"
                assert kernels.numpy_or_none() is not None
        else:
            with pytest.raises(ImportError), kernels.use_tier("numpy"):
                pass  # pragma: no cover

    def test_use_tier_rejects_unknown_tier(self):
        with pytest.raises(ValueError), kernels.use_tier("cuda"):
            pass  # pragma: no cover

    def test_bad_env_value_raises(self, restore_tier, monkeypatch):
        # restore_tier is requested first so its teardown (the re-probe)
        # runs after monkeypatch has removed the bad value again.
        monkeypatch.setenv("REPRO_KERNELS", "cuda")
        with pytest.raises(ValueError, match="REPRO_KERNELS"):
            kernels.refresh_tier()

    def test_numpy_demanded_but_missing_raises(self, restore_tier, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        monkeypatch.setattr(kernels, "_import_numpy", lambda: None)
        with pytest.raises(ImportError, match="demands the numpy tier"):
            kernels.refresh_tier()

    def test_numpy_version_reported_regardless_of_tier(self):
        try:
            import numpy

            expected = str(numpy.__version__)
        except ImportError:
            expected = None
        with kernels.use_tier("python"):
            assert kernels.numpy_version() == expected


class TestBitsetOps:
    MASKS = [0, 1, 0b1010, (1 << 100) | (1 << 3), (1 << 999) | 1]

    def test_mask_from_rows_duals(self):
        _np_or_skip()
        for rows in ([], [0], [0, 3, 100], list(range(0, 1500, 7))):
            assert bitset.mask_from_rows_np(rows) == bitset.mask_from_rows_py(
                rows
            )

    def test_rows_from_mask_duals(self):
        _np_or_skip()
        for mask in self.MASKS:
            assert bitset.rows_from_mask_np(mask) == bitset.rows_from_mask_py(
                mask
            )

    def test_union_masks_duals(self):
        _np_or_skip()
        assert bitset.union_masks_np(self.MASKS) == bitset.union_masks_py(
            self.MASKS
        )
        assert bitset.union_masks_np([]) == 0

    def test_popcounts_duals(self):
        _np_or_skip()
        assert bitset.popcounts_np(self.MASKS) == bitset.popcounts_py(
            self.MASKS
        )
        assert bitset.popcounts_np([]) == []

    def test_roundtrip(self):
        rows = [0, 5, 63, 64, 65, 511, 512, 2000]
        assert bitset.rows_from_mask(bitset.mask_from_rows(rows)) == rows

    def test_dispatchers_match_python_reference_on_both_tiers(self):
        rows = list(range(0, 2048, 3))
        mask = bitset.mask_from_rows_py(rows)
        for tier in ("python", "numpy"):
            if tier == "numpy" and kernels.numpy_or_none() is None:
                continue
            with kernels.use_tier(tier):
                assert bitset.mask_from_rows(rows) == mask
                assert bitset.rows_from_mask(mask) == rows
                assert bitset.union_masks([mask, 1 << 4096]) == (
                    mask | 1 << 4096
                )
                assert bitset.popcounts([mask, 0, 7]) == [len(rows), 0, 3]


class TestTierAwareWorkerTuning:
    def test_env_override_wins_on_any_tier(self, monkeypatch):
        from repro.parallel.executor import tier_min_items_per_worker

        monkeypatch.setenv("REPRO_MIN_ROWS_PER_WORKER", "10")
        with kernels.use_tier("python"):
            assert tier_min_items_per_worker() == 10

    def test_python_tier_uses_default_threshold(self, monkeypatch):
        from repro.parallel.executor import (
            DEFAULT_MIN_ITEMS_PER_WORKER,
            tier_min_items_per_worker,
        )

        monkeypatch.delenv("REPRO_MIN_ROWS_PER_WORKER", raising=False)
        with kernels.use_tier("python"):
            assert tier_min_items_per_worker() == DEFAULT_MIN_ITEMS_PER_WORKER

    def test_numpy_tier_raises_threshold(self, monkeypatch):
        from repro.parallel.executor import (
            NUMPY_MIN_ITEMS_PER_WORKER,
            tier_min_items_per_worker,
        )

        _np_or_skip()
        monkeypatch.delenv("REPRO_MIN_ROWS_PER_WORKER", raising=False)
        with kernels.use_tier("numpy"):
            assert tier_min_items_per_worker() == NUMPY_MIN_ITEMS_PER_WORKER
        assert NUMPY_MIN_ITEMS_PER_WORKER > 0

    def test_tuned_num_workers_uses_tier_threshold(self, monkeypatch):
        from repro.parallel.executor import tuned_num_workers

        monkeypatch.delenv("REPRO_MIN_ROWS_PER_WORKER", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        with kernels.use_tier("python"):
            # 600 rows: enough for 2 python-tier workers (256/worker) ...
            assert tuned_num_workers(4, 600) == 2
        if kernels.numpy_or_none() is not None:
            with kernels.use_tier("numpy"):
                # ... but below the numpy tier's 1024-per-worker break-even.
                assert tuned_num_workers(4, 600) == 1


class TestBenchTierGuards:
    def test_host_metadata_records_tier_and_numpy(self):
        from repro.perf.runner import host_metadata

        host = host_metadata()
        assert host["kernels"] in ("python", "numpy")
        assert "numpy" in host
        with kernels.use_tier("python"):
            forced = host_metadata()
        assert forced["kernels"] == "python"
        # numpy's availability is reported regardless of the active tier,
        # so a forced-fallback run stays distinguishable from a numpy-less
        # host in the payload alone.
        assert forced["numpy"] == host["numpy"]

    def test_validate_payload_flags_missing_tier(self):
        from repro.perf.runner import validate_payload

        payload = {
            "host": {"cpu_count": 1},
            "rungs": [],
        }
        problems = validate_payload(payload)
        assert any("kernel tier" in problem for problem in problems)

    def test_validate_serve_payload_flags_missing_tier(self):
        from repro.perf.serve_bench import validate_serve_payload

        problems = validate_serve_payload({"host": {"cpu_count": 1}})
        assert any("kernel tier" in problem for problem in problems)

    def test_compare_to_baseline_rejects_mixed_tiers(self):
        from repro.perf.runner import compare_to_baseline

        payload = {"host": {"kernels": "numpy"}, "rungs": []}
        baseline = {"host": {"kernels": "python"}, "rungs": []}
        problems = compare_to_baseline(payload, baseline)
        assert len(problems) == 1
        assert "not comparable" in problems[0]

    def test_compare_to_baseline_accepts_matching_tiers(self):
        from repro.perf.runner import compare_to_baseline

        payload = {"host": {"kernels": "python"}, "rungs": []}
        baseline = {"host": {"kernels": "python"}, "rungs": []}
        assert compare_to_baseline(payload, baseline) == []

    def test_compare_to_baseline_tolerates_untagged_baseline(self):
        # Baselines produced before the kernel tier existed carry no tag;
        # the comparison must not reject them (validate_payload flags the
        # missing tag separately).
        from repro.perf.runner import compare_to_baseline

        payload = {"host": {"kernels": "numpy"}, "rungs": []}
        assert compare_to_baseline(payload, {"host": {}, "rungs": []}) == []


class TestKernelsCliFlag:
    def test_cli_parser_accepts_tiers(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "--kernels",
                "python",
                "discover",
                "a.csv",
                "b.csv",
                "--source-column",
                "v",
                "--target-column",
                "v",
            ]
        )
        assert args.kernels == "python"

    def test_cli_parser_rejects_unknown_tier(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--kernels", "cuda", "discover", "a.csv", "b.csv"]
            )

    def test_perf_parser_accepts_tiers(self):
        from repro.perf.__main__ import build_parser

        args = build_parser().parse_args(["--kernels", "numpy", "--smoke"])
        assert args.kernels == "numpy"
        assert build_parser().parse_args([]).kernels == "auto"

    def test_cli_forces_tier_for_the_run(self, tmp_path):
        import os

        from repro.cli import main
        from repro.table.io import write_csv
        from repro.table.table import Table

        source = tmp_path / "source.csv"
        target = tmp_path / "target.csv"
        write_csv(Table(columns={"v": ["ab cd", "xy zw"]}), source)
        write_csv(Table(columns={"v": ["ab", "xy"]}), target)
        # The CLI writes REPRO_KERNELS itself (deliberately: spawn workers
        # must re-resolve to the pinned tier), so the test restores the
        # environment by hand — monkeypatch only undoes its own changes.
        previous = os.environ.get("REPRO_KERNELS")
        try:
            exit_code = main(
                [
                    "--kernels",
                    "python",
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
            assert kernels.active_tier() == "python"
        finally:
            if previous is None:
                os.environ.pop("REPRO_KERNELS", None)
            else:
                os.environ["REPRO_KERNELS"] = previous
            kernels.refresh_tier()
