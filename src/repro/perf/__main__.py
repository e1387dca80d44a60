"""CLI for the perf harness: ``python -m repro.perf``.

Examples
--------
Full before/after ladder with the multi-worker axis (writes
``BENCH_matching.json`` and ``BENCH_discovery.json`` to the repository
root)::

    PYTHONPATH=src python -m repro.perf --out . --workers 1,2,4,8

CI smoke (smallest rung, packed and setsim engines, fails when stage
timings are missing or outputs are empty; ``--workers 1,2`` additionally
smoke-tests sharded setsim matching and sharded coverage against their
serial runs through the identical-results flag)::

    PYTHONPATH=src python -m repro.perf --smoke --out /tmp/bench --workers 1,2
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.perf.runner import (
    DEFAULT_LADDER,
    DEFAULT_WORKERS,
    MATCHING_ENGINES,
    BenchmarkRunner,
    compare_to_baseline,
    validate_payload,
)
from repro.perf.serve_bench import (
    DEFAULT_CONCURRENCY,
    ServeBenchConfig,
    run_serve_benchmark,
)


def _parse_ladder(text: str) -> tuple[int, ...]:
    try:
        ladder = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"bad ladder {text!r}: {error}") from None
    if not ladder:
        raise argparse.ArgumentTypeError("ladder must contain at least one rung")
    if any(rung <= 0 for rung in ladder):
        raise argparse.ArgumentTypeError(
            f"ladder rungs must be positive, got {list(ladder)}"
        )
    return ladder


def _parse_workers(text: str) -> tuple[int, ...]:
    try:
        workers = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"bad workers {text!r}: {error}") from None
    if not workers:
        raise argparse.ArgumentTypeError("workers must contain at least one count")
    if any(count <= 0 for count in workers):
        raise argparse.ArgumentTypeError(
            f"worker counts must be positive, got {list(workers)}"
        )
    return workers


def _parse_engines(text: str) -> tuple[str, ...]:
    engines = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [engine for engine in engines if engine not in MATCHING_ENGINES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown engines {unknown}; valid engines: {list(MATCHING_ENGINES)}"
        )
    return engines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Time the matching/discovery hot path on a synthetic size ladder.",
    )
    parser.add_argument(
        "--benchmark",
        choices=("matching", "discovery", "both", "serve"),
        default="both",
        help=(
            "which BENCH_*.json report(s) to produce (default: both; "
            "'serve' runs the HTTP serving load generator instead of the "
            "training ladder and writes BENCH_serve.json)"
        ),
    )
    parser.add_argument(
        "--ladder",
        type=_parse_ladder,
        default=DEFAULT_LADDER,
        help="comma-separated row counts (default: %(default)s)",
    )
    parser.add_argument(
        "--engines",
        type=_parse_engines,
        default=MATCHING_ENGINES,
        help=(
            "comma-separated engines out of seed,packed,setsim (default: "
            "all); setsim runs on the matching ladder only — the discovery "
            "ladder silently drops it (it swaps the candidate generator, "
            "not the discovery machinery)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=_parse_workers,
        default=DEFAULT_WORKERS,
        help=(
            "comma-separated worker counts swept for setsim matching and "
            "packed discovery, e.g. 1,2,4,8 (default: %(default)s); results "
            "stay identical, per-rung speedup and parallel efficiency are "
            "recorded"
        ),
    )
    parser.add_argument(
        "--max-seed-rows",
        type=int,
        default=10000,
        help="largest rung the slow seed engine runs at (default: %(default)s)",
    )
    parser.add_argument(
        "--sample-size",
        type=int,
        default=200,
        help="discovery generation sample size (default: %(default)s)",
    )
    parser.add_argument(
        "--row-length",
        type=int,
        default=28,
        help="synthetic row length (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base RNG seed (default: %(default)s)"
    )
    parser.add_argument(
        "--out",
        default=".",
        help="directory BENCH_*.json files are written to (default: cwd)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "fast sanity run: smallest ladder rung, packed engine only; "
            "exits non-zero when stage timings or outputs are missing"
        ),
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=(
            "directory holding checked-in BENCH_*.json files; the packed "
            "applying_transformations stage is compared per rung and the "
            "run fails when it is more than --baseline-factor slower "
            "(coarse hot-path regression guard for CI)"
        ),
    )
    parser.add_argument(
        "--baseline-factor",
        type=float,
        default=2.0,
        help=(
            "allowed slow-down factor against the --baseline timings "
            "(default: %(default)s; loose on purpose, CI clocks are noisy)"
        ),
    )
    serve = parser.add_argument_group("serve benchmark (--benchmark serve)")
    serve.add_argument(
        "--serve-rows",
        type=int,
        default=2000,
        help="rows per request batch the serving model is fitted on "
        "(default: %(default)s)",
    )
    serve.add_argument(
        "--serve-concurrency",
        type=_parse_workers,
        default=DEFAULT_CONCURRENCY,
        help="comma-separated closed-loop client counts swept against the "
        "server (default: %(default)s)",
    )
    serve.add_argument(
        "--serve-duration",
        type=float,
        default=2.0,
        help="seconds each concurrency level is driven for (default: %(default)s)",
    )
    serve.add_argument(
        "--serve-workers",
        type=int,
        default=None,
        help="apply-stage worker processes inside the server (default: "
        "REPRO_NUM_WORKERS or serial)",
    )
    serve.add_argument(
        "--serve-no-micro-batch",
        action="store_true",
        help="disable coalescing of concurrent same-model requests",
    )
    return parser


def _run_serve(args: argparse.Namespace) -> tuple[dict, Path]:
    """Run the serving load generator and write ``BENCH_serve.json``."""
    concurrency = args.serve_concurrency
    duration = args.serve_duration
    rows = args.serve_rows
    if args.smoke:
        rows = min(rows, 800)
        duration = min(duration, 1.0)
        concurrency = (1, 4)
    payload = run_serve_benchmark(
        ServeBenchConfig(
            rows=rows,
            concurrency=tuple(concurrency),
            duration_s=duration,
            num_workers=args.serve_workers,
            micro_batch=not args.serve_no_micro_batch,
        )
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "BENCH_serve.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload, path


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.benchmark == "serve":
        payload, path = _run_serve(args)
        problems = [f"serve: {problem}" for problem in validate_payload(payload)]
        cold = payload["cold"]["first_request_s"]
        for level in payload["levels"]:
            latency = level.get("latency") or {}
            print(
                f"[serve] c={level['concurrency']}: {level['requests']} req "
                f"in {level['duration_s']:.2f}s, {level['rps']:.1f} req/s, "
                f"p50={latency.get('p50_s', 0) * 1000:.1f}ms "
                f"p99={latency.get('p99_s', 0) * 1000:.1f}ms, "
                f"errors={level['errors']}, "
                f"matches_offline={level['matches_offline']}"
            )
        warm = payload["warm_vs_cold"]
        print(
            f"[serve] cold first request {cold * 1000:.1f}ms vs warm p50 "
            f"{(warm['warm_p50_s'] or 0) * 1000:.1f}ms "
            f"(warm_below_cold={warm['warm_below_cold']})"
        )
        print(f"[serve] wrote {path}")
        if problems:
            for problem in problems:
                print(f"SMOKE FAILURE: {problem}", file=sys.stderr)
            return 1
        return 0
    ladder = args.ladder
    engines = args.engines
    if args.smoke:
        # Smoke both fast engines: a regression in either matcher (or a
        # sharded-identity break, with --workers > 1) must fail CI.
        ladder = (min(ladder),)
        engines = tuple(e for e in ("packed", "setsim") if e in engines) or (
            "packed",
        )

    runner = BenchmarkRunner(
        ladder=ladder,
        row_length=args.row_length,
        sample_size=args.sample_size,
        seed=args.seed,
        workers=args.workers,
        output_dir=args.out,
    )

    wanted = ("matching", "discovery") if args.benchmark == "both" else (args.benchmark,)
    problems: list[str] = []
    for benchmark in wanted:
        if benchmark == "matching":
            payload = runner.run_matching(
                engines=engines, max_seed_rows=args.max_seed_rows
            )
        else:
            discovery_engines = tuple(e for e in engines if e != "setsim")
            if not discovery_engines:
                print(
                    "[discovery] skipped: setsim is a matching-only engine",
                    file=sys.stderr,
                )
                continue
            payload = runner.run_discovery(
                engines=discovery_engines, max_seed_rows=args.max_seed_rows
            )
        path = runner.write(benchmark, payload)
        problems.extend(
            f"{benchmark}: {problem}" for problem in validate_payload(payload)
        )
        if args.baseline:
            baseline_path = Path(args.baseline) / f"BENCH_{benchmark}.json"
            if baseline_path.is_file():
                baseline_payload = json.loads(
                    baseline_path.read_text(encoding="utf-8")
                )
                if benchmark == "discovery":
                    comparisons = [("packed", "applying_transformations")]
                else:
                    # The matching guard covers both fast engines: a
                    # quadratic slip in either matcher must trip it.
                    comparisons = [
                        ("packed", "row_matching"),
                        ("setsim", "row_matching"),
                    ]
                for engine, stage in comparisons:
                    problems.extend(
                        f"{benchmark}: {problem}"
                        for problem in compare_to_baseline(
                            payload,
                            baseline_payload,
                            engine=engine,
                            stage=stage,
                            factor=args.baseline_factor,
                        )
                    )
            else:
                problems.append(
                    f"{benchmark}: baseline file {baseline_path} not found"
                )
        for rung in payload["rungs"]:
            summary = ", ".join(
                f"{engine}={record['total_s']:.2f}s"
                + (
                    f" (prune {record['pruning_ratio']:.4f})"
                    if "pruning_ratio" in record
                    else ""
                )
                for engine, record in rung["engines"].items()
            )
            speedup = ""
            if "speedup" in rung:
                speedup = (
                    f", speedup={rung['speedup']}x"
                    f" ({rung.get('speedup_engine', 'packed')}"
                    f" vs {rung.get('speedup_baseline', 'seed')})"
                )
            identical = (
                f", identical={rung['identical']}" if "identical" in rung else ""
            )
            parallel = ""
            if "parallel" in rung:
                parallel = ", " + ", ".join(
                    f"{label}={info['speedup_vs_serial']}x"
                    f" (eff {info['efficiency']})"
                    for label, info in rung["parallel"].items()
                )
            print(
                f"[{benchmark}] rows={rung['rows']}: "
                f"{summary}{speedup}{parallel}{identical}"
            )
        print(f"[{benchmark}] wrote {path}")

    if problems:
        for problem in problems:
            print(f"SMOKE FAILURE: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
