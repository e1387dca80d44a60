"""Unit tests for the perf harness (repro.perf)."""

from __future__ import annotations

import json
import os

import pytest

from repro.perf import BenchmarkRunner, host_metadata, validate_payload
from repro.perf.__main__ import main
from repro.perf.runner import compare_to_baseline


@pytest.fixture(scope="module")
def tiny_runner_payloads(tmp_path_factory):
    """One small before/after ladder run shared by the assertions below."""
    out = tmp_path_factory.mktemp("bench")
    runner = BenchmarkRunner(ladder=(40, 80), sample_size=20, output_dir=out)
    matching = runner.run_matching()
    discovery = runner.run_discovery()
    return runner, matching, discovery


class TestBenchmarkRunner:
    def test_rejects_bad_ladder(self):
        with pytest.raises(ValueError):
            BenchmarkRunner(ladder=())
        with pytest.raises(ValueError):
            BenchmarkRunner(ladder=(100, 0))

    def test_rejects_unknown_engine(self):
        runner = BenchmarkRunner(ladder=(10,))
        with pytest.raises(ValueError):
            runner.matcher_for("warp-drive")
        with pytest.raises(ValueError):
            runner.discovery_for("warp-drive")

    def test_matching_payload_shape(self, tiny_runner_payloads):
        _, matching, _ = tiny_runner_payloads
        assert matching["benchmark"] == "matching"
        assert [rung["rows"] for rung in matching["rungs"]] == [40, 80]
        for rung in matching["rungs"]:
            # The matching ladder runs the setsim engine head-to-head with
            # the n-gram engines by default; identity is asserted within
            # each family only (setsim legitimately matches a different set).
            assert set(rung["engines"]) == {"seed", "packed", "setsim"}
            assert rung["identical"] is True
            for record in rung["engines"].values():
                assert record["num_pairs"] > 0
                assert record["stages"]["row_matching"] >= 0
            assert rung["setsim_vs_packed"] > 0
        assert validate_payload(matching) == []

    def test_discovery_payload_records_stage_breakdown(self, tiny_runner_payloads):
        _, _, discovery = tiny_runner_payloads
        for rung in discovery["rungs"]:
            assert rung["identical"] is True
            for record in rung["engines"].values():
                stages = record["stages"]
                assert "row_matching" in stages
                assert "applying_transformations" in stages
                assert record["num_transformations"] > 0
                assert record["cover_size"] > 0
        assert validate_payload(discovery) == []

    def test_discovery_payload_tracks_apply_only_stage(self, tiny_runner_payloads):
        # The artifact layer's serving path is timed per rung, separately
        # from training: its own stage, its own seconds, its own output
        # count — and the rung's identical flag covers the joined pairs,
        # so the seed (reference loop) and packed (trie) apply engines are
        # continuously checked against each other.
        _, _, discovery = tiny_runner_payloads
        for rung in discovery["rungs"]:
            for record in rung["engines"].values():
                assert record["stages"]["apply_only"] >= 0
                assert record["apply_s"] == record["stages"]["apply_only"]
                assert record["joined_pairs"] > 0
                assert record["total_s"] == pytest.approx(
                    record["matching_s"]
                    + record["discovery_s"]
                    + record["apply_s"]
                )

    def test_validate_payload_requires_apply_stage_on_discovery(self):
        payload = {
            "benchmark": "discovery",
            "rungs": [
                {
                    "rows": 10,
                    "engines": {
                        "packed": {
                            "stages": {"row_matching": 0.1},
                            "total_s": 0.1,
                            "num_pairs": 3,
                            "num_transformations": 2,
                        }
                    },
                }
            ],
        }
        problems = validate_payload(payload)
        assert any("no apply_only stage" in problem for problem in problems)
        assert any("no pairs" in problem for problem in problems)

    def test_max_seed_rows_caps_the_slow_engine(self):
        runner = BenchmarkRunner(ladder=(30, 60), sample_size=15)
        payload = runner.run_matching(max_seed_rows=30)
        by_rows = {rung["rows"]: rung for rung in payload["rungs"]}
        assert set(by_rows[30]["engines"]) == {"seed", "packed", "setsim"}
        assert set(by_rows[60]["engines"]) == {"packed", "setsim"}
        assert "speedup" not in by_rows[60]

    def test_write_emits_json_file(self, tiny_runner_payloads, tmp_path):
        runner, matching, _ = tiny_runner_payloads
        runner.output_dir = tmp_path
        path = runner.write("matching", matching)
        assert path.name == "BENCH_matching.json"
        assert json.loads(path.read_text())["benchmark"] == "matching"

    def test_host_metadata_embedded(self, tiny_runner_payloads):
        # Multi-core numbers are only interpretable with the host context.
        _, matching, discovery = tiny_runner_payloads
        for payload in (matching, discovery):
            host = payload["host"]
            assert host["cpu_count"] == (os.cpu_count() or 1)
            assert host["start_method"] in ("fork", "spawn", "forkserver")
            assert payload["config"]["workers"] == [1]
        assert host_metadata()["cpu_count"] == (os.cpu_count() or 1)


class TestWorkersAxis:
    @pytest.fixture(scope="class")
    def workers_payloads(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench-workers")
        runner = BenchmarkRunner(
            ladder=(60,), sample_size=20, workers=(1, 2), output_dir=out
        )
        return runner, runner.run_matching(), runner.run_discovery()

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            BenchmarkRunner(ladder=(10,), workers=())
        with pytest.raises(ValueError):
            BenchmarkRunner(ladder=(10,), workers=(2, 0))

    def test_seed_engine_is_serial_only(self):
        runner = BenchmarkRunner(ladder=(10,), workers=(1, 2))
        with pytest.raises(ValueError):
            runner.matcher_for("seed", num_workers=2)
        with pytest.raises(ValueError):
            runner.discovery_for("seed", num_workers=2)

    def test_records_one_engine_per_worker_count(self, workers_payloads):
        _, matching, discovery = workers_payloads
        for rung in matching["rungs"]:
            # On the matching ladder the workers axis sweeps setsim only:
            # the n-gram matcher is serial, so a packed-w2 record would time
            # the serial matcher under a worker label.  The discovery ladder
            # keeps packed-w2 (coverage shards) and has no setsim variant.
            assert set(rung["engines"]) == {
                "seed",
                "packed",
                "setsim",
                "setsim-w2",
            }
            assert rung["engines"]["setsim-w2"]["num_workers"] == 2
        for rung in discovery["rungs"]:
            assert set(rung["engines"]) == {"seed", "packed", "packed-w2"}
            assert rung["engines"]["packed-w2"]["num_workers"] == 2
        for payload in (matching, discovery):
            for rung in payload["rungs"]:
                assert rung["identical"] is True
            assert payload["config"]["workers"] == [1, 2]
            assert validate_payload(payload) == []

    def test_parallel_efficiency_recorded(self, workers_payloads):
        _, matching, discovery = workers_payloads
        for payload, label in ((matching, "setsim-w2"), (discovery, "packed-w2")):
            for rung in payload["rungs"]:
                assert set(rung["parallel"]) == {label}
                parallel = rung["parallel"][label]
                assert parallel["workers"] == 2
                assert parallel["speedup_vs_serial"] > 0
                # Efficiency is normalized by what actually ran: on tiny
                # inputs (or single-core hosts) the small-input fast path
                # reduces the pool, and the record says so instead of
                # reporting the serial run as 2-worker inefficiency.
                effective = parallel["effective_workers"]
                assert 1 <= effective <= 2
                assert rung["engines"][label]["effective_workers"] == effective
                assert parallel["efficiency"] == pytest.approx(
                    parallel["speedup_vs_serial"] / effective, abs=0.01
                )

    def test_identical_compares_worker_variants_without_seed(self):
        # Even with the seed engine skipped, the rung still carries the
        # equivalence flag: packed vs packed-w2 on real outputs.
        runner = BenchmarkRunner(ladder=(40,), sample_size=15, workers=(1, 2))
        payload = runner.run_discovery(engines=("packed",))
        rung = payload["rungs"][0]
        assert set(rung["engines"]) == {"packed", "packed-w2"}
        assert rung["identical"] is True
        # No seed baseline, but the rung must not drop the speedup: the
        # packed serial run is the (labelled) baseline and the best worker
        # variant the comparison engine.
        assert rung["speedup"] > 0
        assert rung["speedup_baseline"] == "packed"
        assert rung["speedup_engine"] == "packed-w2"


class TestSpeedupSummary:
    def test_seed_rungs_label_the_seed_baseline(self, tiny_runner_payloads):
        _, matching, discovery = tiny_runner_payloads
        for payload in (matching, discovery):
            for rung in payload["rungs"]:
                assert rung["speedup"] > 0
                assert rung["speedup_baseline"] == "seed"
                assert rung["speedup_engine"] == "packed"

    def test_stage_speedup_breakdown_recorded(self, tiny_runner_payloads):
        # The per-stage ratios are what make a coverage-stage optimisation
        # visible in the BENCH JSON instead of buried in the total.
        _, _, discovery = tiny_runner_payloads
        for rung in discovery["rungs"]:
            breakdown = rung["stage_speedup"]
            assert "applying_transformations" in breakdown
            assert "row_matching" in breakdown
            assert all(ratio > 0 for ratio in breakdown.values())

    def test_seed_capped_rungs_fall_back_to_packed_baseline(self):
        runner = BenchmarkRunner(ladder=(30, 60), sample_size=15, workers=(1, 2))
        payload = runner.run_discovery(max_seed_rows=30)
        by_rows = {rung["rows"]: rung for rung in payload["rungs"]}
        assert by_rows[30]["speedup_baseline"] == "seed"
        capped = by_rows[60]
        assert capped["speedup"] > 0
        assert capped["speedup_baseline"] == "packed"
        assert capped["speedup_engine"] == "packed-w2"
        assert "applying_transformations" in capped["stage_speedup"]


class TestCompareToBaseline:
    @staticmethod
    def payload_with_stage(seconds, rows=1000, stage="applying_transformations"):
        return {
            "rungs": [
                {
                    "rows": rows,
                    "engines": {"packed": {"stages": {stage: seconds}}},
                }
            ]
        }

    def test_within_factor_passes(self):
        current = self.payload_with_stage(1.9)
        baseline = self.payload_with_stage(1.0)
        assert compare_to_baseline(current, baseline, factor=2.0) == []

    def test_gross_regression_fails(self):
        current = self.payload_with_stage(2.5)
        baseline = self.payload_with_stage(1.0)
        problems = compare_to_baseline(current, baseline, factor=2.0)
        assert len(problems) == 1
        assert "applying_transformations" in problems[0]
        assert "rung 1000" in problems[0]

    def test_unmatched_rungs_and_stages_are_skipped(self):
        current = self.payload_with_stage(9.0, rows=5000)
        baseline = self.payload_with_stage(1.0, rows=1000)
        assert compare_to_baseline(current, baseline) == []
        current = self.payload_with_stage(9.0, stage="row_matching")
        baseline = self.payload_with_stage(1.0)
        assert compare_to_baseline(current, baseline) == []

    def test_bad_factor_rejected(self):
        with pytest.raises(ValueError):
            compare_to_baseline({}, {}, factor=0)


class TestValidatePayload:
    def test_flags_empty_payload(self):
        assert validate_payload({}) == ["no rungs recorded"]

    def test_flags_missing_stages_and_outputs(self):
        payload = {
            "rungs": [
                {
                    "rows": 10,
                    "engines": {
                        "packed": {"stages": {}, "total_s": 0.0, "num_pairs": 0}
                    },
                }
            ]
        }
        problems = validate_payload(payload)
        assert any("no stage timings" in problem for problem in problems)
        assert any("total_s" in problem for problem in problems)
        assert any("no candidate pairs" in problem for problem in problems)

    def test_flags_missing_identical_flag(self):
        # Two engine records without the equivalence verdict means the rung
        # never compared its outputs — the smoke must treat that as failure,
        # not silently as success.
        payload = {
            "rungs": [
                {
                    "rows": 10,
                    "engines": {
                        "packed": {
                            "stages": {"row_matching": 0.1},
                            "total_s": 0.1,
                            "num_pairs": 3,
                        },
                        "packed-w2": {
                            "stages": {"row_matching": 0.1},
                            "total_s": 0.1,
                            "num_pairs": 3,
                        },
                    },
                }
            ]
        }
        assert any(
            "no identical flag" in problem for problem in validate_payload(payload)
        )

    def test_flags_disagreeing_engines(self):
        payload = {
            "rungs": [
                {
                    "rows": 10,
                    "engines": {
                        "packed": {
                            "stages": {"row_matching": 0.1},
                            "total_s": 0.1,
                            "num_pairs": 3,
                        }
                    },
                    "identical": False,
                }
            ]
        }
        assert any(
            "disagree" in problem for problem in validate_payload(payload)
        )


class TestCli:
    def test_smoke_mode_writes_reports_and_passes(self, tmp_path, capsys):
        exit_code = main(
            ["--smoke", "--ladder", "60", "--sample-size", "20", "--out", str(tmp_path)]
        )
        assert exit_code == 0
        assert (tmp_path / "BENCH_matching.json").exists()
        assert (tmp_path / "BENCH_discovery.json").exists()
        captured = capsys.readouterr()
        assert "rows=60" in captured.out

    def test_bad_engine_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--engines", "warp-drive", "--out", str(tmp_path)])

    def test_baseline_guard_passes_against_own_output(self, tmp_path):
        # First run writes the BENCH files; a second run checked against
        # them must pass.  The factor is widened well beyond the CI default:
        # this asserts the guard's plumbing, and a 60-row rung's wall clock
        # can legitimately wobble severalfold on a loaded test machine.
        args = ["--smoke", "--ladder", "60", "--sample-size", "20"]
        assert main(args + ["--out", str(tmp_path)]) == 0
        again = tmp_path / "again"
        assert (
            main(
                args
                + [
                    "--out",
                    str(again),
                    "--baseline",
                    str(tmp_path),
                    "--baseline-factor",
                    "50",
                ]
            )
            == 0
        )

    def test_baseline_guard_fails_on_gross_regression(self, tmp_path, capsys):
        args = ["--smoke", "--ladder", "60", "--sample-size", "20"]
        assert main(args + ["--out", str(tmp_path)]) == 0
        # Doctor the checked-in timing down so the fresh run looks like a
        # >2x regression of the coverage stage.
        bench_path = tmp_path / "BENCH_discovery.json"
        payload = json.loads(bench_path.read_text())
        for rung in payload["rungs"]:
            stages = rung["engines"]["packed"]["stages"]
            stages["applying_transformations"] = (
                stages["applying_transformations"] / 1000
            )
        bench_path.write_text(json.dumps(payload))
        again = tmp_path / "again"
        assert (
            main(args + ["--out", str(again), "--baseline", str(tmp_path)]) == 1
        )
        assert "applying_transformations" in capsys.readouterr().err

    def test_missing_baseline_file_fails(self, tmp_path):
        args = [
            "--smoke",
            "--ladder",
            "60",
            "--sample-size",
            "20",
            "--out",
            str(tmp_path),
            "--baseline",
            str(tmp_path / "nowhere"),
        ]
        assert main(args) == 1


def good_serve_payload() -> dict:
    """A minimal payload that passes every serve validation check."""
    return {
        "benchmark": "serve",
        "cold": {
            "first_request_s": 0.02,
            "response_ok": True,
            "warm_probe_s": 0.004,
            "warm_probe_ok": True,
        },
        "levels": [
            {
                "concurrency": 1,
                "requests": 50,
                "errors": 0,
                "shed": 0,
                "deadline_exceeded": 0,
                "duration_s": 1.0,
                "rps": 50.0,
                "verified_responses": 4,
                "matches_offline": True,
                "latency": {
                    "mean_s": 0.005,
                    "p50_s": 0.005,
                    "p99_s": 0.009,
                    "max_s": 0.010,
                },
            }
        ],
        "warm_vs_cold": {
            "cold_first_request_s": 0.02,
            "warm_p50_s": 0.005,
            "warm_below_cold": True,
        },
    }


class TestValidateServePayload:
    def test_good_payload_passes(self):
        assert validate_payload(good_serve_payload()) == []

    def test_dispatches_through_validate_payload(self):
        # A serve payload must not be judged by the training-ladder rules.
        problems = validate_payload({"benchmark": "serve"})
        assert problems
        assert all("rung" not in problem for problem in problems)

    def test_flags_cold_failures(self):
        payload = good_serve_payload()
        payload["cold"]["response_ok"] = False
        payload["cold"]["warm_probe_ok"] = False
        problems = validate_payload(payload)
        assert any("first response" in problem for problem in problems)
        assert any("warm probe" in problem for problem in problems)

    def test_flags_level_errors_and_mismatches(self):
        payload = good_serve_payload()
        payload["levels"][0]["errors"] = 3
        payload["levels"][0]["matches_offline"] = False
        problems = validate_payload(payload)
        assert any("request errors" in problem for problem in problems)
        assert any("identical to offline" in problem for problem in problems)

    def test_flags_shed_and_deadline_exceeded_requests(self):
        # BENCH records are made at the resilience defaults: a level that
        # shed requests or hit deadlines is not a clean benchmark.
        payload = good_serve_payload()
        payload["levels"][0]["shed"] = 2
        del payload["levels"][0]["deadline_exceeded"]
        problems = validate_payload(payload)
        assert any("2 shed" in problem for problem in problems)
        assert any(
            "deadline_exceeded" in problem and "missing" in problem
            for problem in problems
        )

    def test_flags_missing_latency_and_inverted_quantiles(self):
        payload = good_serve_payload()
        del payload["levels"][0]["latency"]
        assert any(
            "no latency summary" in problem
            for problem in validate_payload(payload)
        )
        payload = good_serve_payload()
        payload["levels"][0]["latency"]["p99_s"] = 0.001
        assert any("p99 below p50" in problem for problem in validate_payload(payload))

    def test_flags_warm_not_below_cold(self):
        payload = good_serve_payload()
        payload["warm_vs_cold"]["warm_below_cold"] = False
        assert any(
            "warm p50" in problem for problem in validate_payload(payload)
        )

    def test_flags_empty_levels(self):
        payload = good_serve_payload()
        payload["levels"] = []
        assert any(
            "no concurrency levels" in problem
            for problem in validate_payload(payload)
        )
