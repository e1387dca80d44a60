"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.table.io import read_csv, write_csv
from repro.table.table import Table


@pytest.fixture
def staff_csvs(tmp_path, staff_tables):
    source, target = staff_tables
    source_path = tmp_path / "staff.csv"
    target_path = tmp_path / "phones.csv"
    write_csv(source, source_path)
    write_csv(target, target_path)
    return source_path, target_path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_discover_arguments(self):
        args = build_parser().parse_args(
            [
                "discover",
                "a.csv",
                "b.csv",
                "--source-column",
                "Name",
                "--target-column",
                "Name",
                "--max-placeholders",
                "4",
            ]
        )
        assert args.command == "discover"
        assert args.max_placeholders == 4

    def test_benchmark_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["benchmark", "not-a-dataset", "--output-dir", "out"]
            )

    def test_num_workers_defaults_to_config(self):
        args = build_parser().parse_args(
            [
                "discover",
                "a.csv",
                "b.csv",
                "--source-column",
                "Name",
                "--target-column",
                "Name",
            ]
        )
        assert args.num_workers is None


class TestNumWorkersFlag:
    def test_discover_with_workers_matches_serial(self, staff_csvs, capsys):
        source_path, target_path = staff_csvs
        argv = [
            "discover",
            str(source_path),
            str(target_path),
            "--source-column",
            "Name",
            "--target-column",
            "Name",
        ]
        # Pin the baseline to serial explicitly: under the CI job that sets
        # REPRO_NUM_WORKERS=2 a flagless run would itself be sharded and the
        # comparison would be a tautology.
        assert main(argv + ["--num-workers", "1"]) == 0
        serial_output = capsys.readouterr().out
        assert main(argv + ["--num-workers", "2"]) == 0
        sharded_output = capsys.readouterr().out
        assert sharded_output == serial_output


class TestDiscoverCommand:
    def test_prints_covering_set(self, staff_csvs, capsys):
        source_path, target_path = staff_csvs
        exit_code = main(
            [
                "discover",
                str(source_path),
                str(target_path),
                "--source-column",
                "Name",
                "--target-column",
                "Name",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "covering set:" in captured
        assert "Split" in captured


class TestJoinCommand:
    def test_writes_joined_csv(self, staff_csvs, tmp_path, capsys):
        source_path, target_path = staff_csvs
        output = tmp_path / "joined.csv"
        exit_code = main(
            [
                "join",
                str(source_path),
                str(target_path),
                "--source-column",
                "Name",
                "--target-column",
                "Name",
                "--output",
                str(output),
                "--min-support",
                "0.0",
            ]
        )
        assert exit_code == 0
        joined = read_csv(output)
        assert joined.num_rows >= 5
        assert "Name_source" in joined and "Phone_target" in joined
        assert "joined rows" in capsys.readouterr().out


class TestFitApplyCommands:
    def test_fit_writes_model_and_apply_joins_with_it(
        self, staff_csvs, tmp_path, capsys
    ):
        source_path, target_path = staff_csvs
        model_path = tmp_path / "model.json"
        exit_code = main(
            [
                "fit",
                str(source_path),
                str(target_path),
                "--source-column",
                "Name",
                "--target-column",
                "Name",
                "--save",
                str(model_path),
                "--min-support",
                "0.0",
            ]
        )
        assert exit_code == 0
        assert model_path.exists()
        assert "wrote" in capsys.readouterr().out

        output = tmp_path / "applied.csv"
        exit_code = main(
            [
                "apply",
                str(source_path),
                str(target_path),
                "--model",
                str(model_path),
                "--source-column",
                "Name",
                "--target-column",
                "Name",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        applied = read_csv(output)
        assert applied.num_rows >= 5
        assert "joined rows" in capsys.readouterr().out

    def test_fit_then_apply_matches_one_shot_join(self, staff_csvs, tmp_path):
        # The acceptance contract: fit + apply on the same inputs produces
        # exactly the joined table of the one-shot `join` command.
        source_path, target_path = staff_csvs
        model_path = tmp_path / "model.json"
        one_shot = tmp_path / "one_shot.csv"
        applied = tmp_path / "applied.csv"
        columns = ["--source-column", "Name", "--target-column", "Name"]
        paths = [str(source_path), str(target_path)]
        assert (
            main(
                ["join"]
                + paths
                + columns
                + ["--output", str(one_shot), "--min-support", "0.05"]
            )
            == 0
        )
        assert (
            main(["fit"] + paths + columns + ["--save", str(model_path)]) == 0
        )
        assert (
            main(
                ["apply"]
                + paths
                + ["--model", str(model_path)]
                + columns
                + ["--output", str(applied)]
            )
            == 0
        )
        assert applied.read_text() == one_shot.read_text()

    def test_fit_rejects_unwritable_save_path(self, staff_csvs, tmp_path, capsys):
        source_path, target_path = staff_csvs
        exit_code = main(
            [
                "fit",
                str(source_path),
                str(target_path),
                "--source-column",
                "Name",
                "--target-column",
                "Name",
                "--save",
                str(tmp_path / "missing-dir" / "model.json"),
            ]
        )
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_apply_rejects_missing_model_file(self, staff_csvs, tmp_path, capsys):
        # Same clean error contract as a corrupt file: one line on stderr,
        # exit 1 — not a traceback.
        source_path, target_path = staff_csvs
        exit_code = main(
            [
                "apply",
                str(source_path),
                str(target_path),
                "--model",
                str(tmp_path / "nowhere.json"),
                "--source-column",
                "Name",
                "--target-column",
                "Name",
                "--output",
                str(tmp_path / "out.csv"),
            ]
        )
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_apply_rejects_corrupt_model(self, staff_csvs, tmp_path, capsys):
        source_path, target_path = staff_csvs
        bad_model = tmp_path / "bad.json"
        bad_model.write_text("{broken", encoding="utf-8")
        exit_code = main(
            [
                "apply",
                str(source_path),
                str(target_path),
                "--model",
                str(bad_model),
                "--source-column",
                "Name",
                "--target-column",
                "Name",
                "--output",
                str(tmp_path / "out.csv"),
            ]
        )
        assert exit_code == 1
        assert "error" in capsys.readouterr().err


class TestErrorContract:
    def test_unreadable_csv_maps_to_one_error_line(self, staff_csvs, capsys):
        # Invalid UTF-8 in an input table must surface as the one-line
        # stderr contract (exit 1, single "error:" line, no traceback), not
        # a UnicodeDecodeError traceback.
        source_path, target_path = staff_csvs
        source_path.write_bytes(b"Name\n\xff\xfe\n")
        exit_code = main(
            [
                "discover",
                str(source_path),
                str(target_path),
                "--source-column",
                "Name",
                "--target-column",
                "Name",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error: ")
        assert "not valid UTF-8" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_ragged_csv_maps_to_one_error_line(self, staff_csvs, capsys):
        source_path, target_path = staff_csvs
        source_path.write_text("Name,Phone\nAlice\n")
        exit_code = main(
            [
                "join",
                str(source_path),
                str(target_path),
                "--source-column",
                "Name",
                "--target-column",
                "Name",
                "--output",
                str(source_path.parent / "joined.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error: ")
        assert "expected 2 cells" in captured.err

    @pytest.mark.parametrize("command", ["discover", "join", "fit", "apply"])
    def test_missing_csv_maps_to_one_error_line(
        self, command, staff_csvs, tmp_path, capsys
    ):
        # A CSV that does not exist is unreadable input like any other: exit
        # 1 and one "error:" line, not a FileNotFoundError traceback.
        source_path, target_path = staff_csvs
        columns = ["--source-column", "Name", "--target-column", "Name"]
        model = str(tmp_path / "model.json")
        output = ["--output", str(tmp_path / "joined.csv")]
        extra = {
            "discover": [],
            "join": output,
            "fit": ["--save", model],
            "apply": ["--model", model, *output],
        }
        if command == "apply":
            fit = ["fit", str(source_path), str(target_path), *columns]
            assert main([*fit, "--save", model]) == 0
            capsys.readouterr()
        missing = tmp_path / "missing.csv"
        exit_code = main(
            [command, str(missing), str(target_path), *columns, *extra[command]]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith(f"error: {missing}: cannot read: ")
        assert len(captured.err.strip().splitlines()) == 1


class TestTimeBudgetFlag:
    def test_exhausted_budget_warns_but_succeeds(self, staff_csvs, capsys):
        # Budget exhaustion is a degraded success: valid partial output on
        # stdout, one warning line on stderr, exit code 0.
        source_path, target_path = staff_csvs
        exit_code = main(
            [
                "discover",
                str(source_path),
                str(target_path),
                "--source-column",
                "Name",
                "--target-column",
                "Name",
                "--time-budget",
                "0.000000001",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "covering set:" in captured.out
        assert captured.err.startswith("warning: discovery time budget exhausted")
        assert len(captured.err.strip().splitlines()) == 1

    def test_generous_budget_is_silent(self, staff_csvs, capsys):
        source_path, target_path = staff_csvs
        exit_code = main(
            [
                "discover",
                str(source_path),
                str(target_path),
                "--source-column",
                "Name",
                "--target-column",
                "Name",
                "--time-budget",
                "3600",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.err == ""

    def test_fit_records_budget_exhaustion_in_the_model(
        self, staff_csvs, tmp_path, capsys
    ):
        from repro.model import TransformationModel

        source_path, target_path = staff_csvs
        model_path = tmp_path / "model.json"
        exit_code = main(
            [
                "fit",
                str(source_path),
                str(target_path),
                "--source-column",
                "Name",
                "--target-column",
                "Name",
                "--save",
                str(model_path),
                "--time-budget",
                "0.000000001",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.err.startswith("warning: discovery time budget exhausted")
        model = TransformationModel.load(model_path)
        assert model.stats["budget_exhausted"] is True


class TestFaultToleranceFlags:
    def test_fault_knobs_parse_and_run(self, staff_csvs, tmp_path, capsys):
        # The resilience knobs must thread end-to-end through every stage
        # without changing results.
        source_path, target_path = staff_csvs
        argv = [
            "join",
            str(source_path),
            str(target_path),
            "--source-column",
            "Name",
            "--target-column",
            "Name",
        ]
        baseline = tmp_path / "baseline.csv"
        tolerant = tmp_path / "tolerant.csv"
        assert main(argv + ["--output", str(baseline)]) == 0
        assert (
            main(
                argv
                + [
                    "--output",
                    str(tolerant),
                    "--task-timeout",
                    "60",
                    "--shard-retries",
                    "1",
                    "--no-serial-fallback",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert tolerant.read_text() == baseline.read_text()


class TestBenchmarkCommand:
    def test_materializes_dataset(self, tmp_path, capsys):
        exit_code = main(
            [
                "benchmark",
                "synth-50",
                "--output-dir",
                str(tmp_path / "out"),
                "--scale",
                "0.1",
                "--seed",
                "1",
            ]
        )
        assert exit_code == 0
        written = list((tmp_path / "out").glob("*.csv"))
        assert len(written) == 3  # source, target, golden for one table
        table = read_csv(written[0])
        assert isinstance(table, Table)
        assert "wrote" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_arguments_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "models",
                "--port",
                "0",
                "--num-workers",
                "2",
                "--joiner-cache",
                "8",
                "--no-micro-batch",
            ]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.num_workers == 2
        assert args.joiner_cache == 8
        assert args.no_micro_batch is True

    def test_serve_rejects_missing_model_dir(self, tmp_path, capsys):
        exit_code = main(["serve", str(tmp_path / "nowhere"), "--port", "0"])
        assert exit_code == 1
        assert "not found" in capsys.readouterr().err


class TestOutOfRangeFlags:
    """An out-of-range number is a one-line usage error (exit 2), raised
    before any input is read: the CSV and model paths here do not exist."""

    COLUMNS = ["--source-column", "v", "--target-column", "v"]
    PAIR = ["missing_a.csv", "missing_b.csv", *COLUMNS]
    APPLY = ["apply", *PAIR, "--model", "missing.json", "--output", "o.csv"]

    @pytest.fixture
    def served(self, monkeypatch):
        """The servers ``repro serve`` starts, recorded instead of served.

        Nor do they install their SIGTERM/SIGINT handlers: those would
        outlive the test, and pool workers forked later in this process
        would inherit them and no longer stop when terminated.
        """
        from repro.serve import JoinServer

        started = []
        monkeypatch.setattr(
            JoinServer, "serve_forever", lambda self: started.append(self)
        )
        monkeypatch.setattr(JoinServer, "install_signal_handlers", lambda self: None)
        return started

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            pytest.param(
                ["join", *PAIR, "--output", "o.csv", "--min-support", "1.5"],
                "min_support must be in [0, 1], got 1.5",
                id="join-min-support",
            ),
            pytest.param(
                ["discover", *PAIR, "--min-ngram", "0"],
                "min_ngram must be positive",
                id="discover-min-ngram",
            ),
            pytest.param(
                ["discover", *PAIR, "--time-budget", "-1"],
                "time_budget_s must be >= 0",
                id="discover-time-budget",
            ),
            pytest.param(
                ["discover", *PAIR, "--top-k", "-1"],
                "top_k must be >= 1",
                id="discover-top-k",
            ),
            pytest.param(
                [*APPLY, "--num-workers", "-3"],
                "num_workers must be >= 0, got -3",
                id="apply-num-workers",
            ),
            pytest.param(
                [*APPLY, "--task-timeout", "-1"],
                "task_timeout_s must be >= 0",
                id="apply-task-timeout",
            ),
            pytest.param(
                ["serve", ".", "--max-inflight", "0"],
                "max_inflight must be >= 1",
                id="serve-max-inflight",
            ),
            pytest.param(
                ["serve", ".", "--port", "99999"],
                "port must be in [0, 65535]",
                id="serve-port",
            ),
            pytest.param(
                ["serve", ".", "--num-workers", "-1"],
                "num_workers must be >= 0, got -1",
                id="serve-num-workers",
            ),
            pytest.param(
                ["discover", *PAIR, "--max-placeholders", "0"],
                "max_placeholders must be >= 1, got 0",
                id="discover-max-placeholders",
            ),
            pytest.param(
                ["discover", *PAIR, "--sample-size", "-1"],
                "sample_size must be >= 0, got -1",
                id="discover-sample-size",
            ),
            pytest.param(
                ["discover", *PAIR, "--max-ngram", "2"],
                "max_ngram (2) must be >= min_ngram (4)",
                id="discover-max-ngram",
            ),
            pytest.param(
                ["discover", *PAIR, "--matcher", "setsim", "--setsim-threshold", "0"],
                "setsim_threshold must be in (0, 1] for jaccard, got 0.0",
                id="discover-setsim-threshold",
            ),
            pytest.param(
                ["discover", *PAIR, "--setsim-qgram", "0"],
                "setsim_qgram must be positive, got 0",
                id="discover-setsim-qgram",
            ),
            pytest.param(
                ["discover", *PAIR, "--shard-retries", "-1"],
                "shard_retries must be >= 0, got -1",
                id="discover-shard-retries",
            ),
            pytest.param(
                ["join", *PAIR, "--output", "o.csv", "--min-support", "-0.1"],
                "min_support must be in [0, 1], got -0.1",
                id="join-min-support-negative",
            ),
            pytest.param(
                ["fit", *PAIR, "--save", "m.json", "--min-support", "1.5"],
                "min_support must be in [0, 1], got 1.5",
                id="fit-min-support",
            ),
            pytest.param(
                [*APPLY, "--shard-retries", "-1"],
                "shard_retries must be >= 0, got -1",
                id="apply-shard-retries",
            ),
            pytest.param(
                ["serve", ".", "--port", "-1"],
                "port must be in [0, 65535], got -1",
                id="serve-port-negative",
            ),
            pytest.param(
                ["serve", ".", "--joiner-cache", "0"],
                "capacity must be positive, got 0",
                id="serve-joiner-cache",
            ),
            pytest.param(
                ["serve", ".", "--index-cache", "0"],
                "capacity must be positive, got 0",
                id="serve-index-cache",
            ),
            pytest.param(
                ["serve", ".", "--request-timeout-s", "-1"],
                "request_timeout_s must be >= 0, got -1.0",
                id="serve-request-timeout",
            ),
            pytest.param(
                ["serve", ".", "--max-queue", "-1"],
                "max_queue must be >= 0, got -1",
                id="serve-max-queue",
            ),
            pytest.param(
                ["serve", ".", "--max-body-mb", "-1"],
                "max_body_bytes must be >= 0, got -1048576",
                id="serve-max-body",
            ),
            pytest.param(
                ["serve", ".", "--breaker-threshold", "0"],
                "failure_threshold must be >= 1, got 0",
                id="serve-breaker-threshold",
            ),
            pytest.param(
                ["serve", ".", "--breaker-cooldown-s", "-1"],
                "cooldown_s must be >= 0, got -1.0",
                id="serve-breaker-cooldown",
            ),
            pytest.param(
                ["serve", ".", "--task-timeout", "-1"],
                "task_timeout_s must be >= 0, got -1.0",
                id="serve-task-timeout",
            ),
            pytest.param(
                ["serve", ".", "--shard-retries", "-1"],
                "shard_retries must be >= 0, got -1",
                id="serve-shard-retries",
            ),
            pytest.param(
                ["benchmark", "synth-50", "--output-dir", "out", "--scale", "0"],
                "scale must be positive, got 0.0",
                id="benchmark-scale-0",
            ),
            pytest.param(
                ["benchmark", "synth-50", "--output-dir", "out", "--scale", "-1"],
                "scale must be positive, got -1.0",
                id="benchmark-scale-negative",
            ),
        ],
    )
    def test_is_a_usage_error(
        self, argv, message, served, tmp_path, monkeypatch, capsys
    ):
        # Were a bad value let through, the server would start: `served`
        # records that.
        monkeypatch.chdir(tmp_path)  # serve's model directory is "."
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert served == []

    @pytest.mark.parametrize(
        ("command", "flags"),
        [
            pytest.param("join", ["--min-support", "0"], id="join-min-support-0"),
            pytest.param("join", ["--min-support", "1"], id="join-min-support-1"),
            pytest.param(
                "discover",
                ["--min-ngram", "1", "--max-ngram", "1"],
                id="discover-one-ngram-size",
            ),
            pytest.param(
                "discover",
                ["--matcher", "setsim", "--setsim-threshold", "1"],
                id="discover-setsim-threshold-1",
            ),
            pytest.param("discover", ["--top-k", "1"], id="discover-top-k-1"),
            pytest.param("apply", ["--num-workers", "0"], id="apply-all-cores"),
        ],
    )
    def test_edge_of_the_range_runs(
        self, command, flags, staff_csvs, tmp_path, capsys
    ):
        # The range checks are not off by one: each edge value is accepted
        # and the command runs to the end.
        source_path, target_path = staff_csvs
        pair = [str(source_path), str(target_path), "--source-column", "Name"]
        pair += ["--target-column", "Name"]
        model = str(tmp_path / "model.json")
        output = ["--output", str(tmp_path / "joined.csv")]
        extra = {"discover": [], "join": output, "apply": ["--model", model, *output]}
        if command == "apply":
            assert main(["fit", *pair, "--save", model]) == 0
        assert main([command, *pair, *extra[command], *flags]) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param(["--max-queue", "0"], id="no-queue"),
            pytest.param(["--request-timeout-s", "0"], id="no-request-deadline"),
            pytest.param(["--max-body-mb", "0"], id="no-body-cap"),
            pytest.param(
                ["--breaker-threshold", "1", "--breaker-cooldown-s", "0"],
                id="breaker-edges",
            ),
        ],
    )
    def test_serve_starts_at_the_edge_of_the_range(
        self, flags, served, tmp_path, capsys
    ):
        assert main(["serve", str(tmp_path), "--port", "0", *flags]) == 0
        assert len(served) == 1
        assert "listening on" in capsys.readouterr().out
