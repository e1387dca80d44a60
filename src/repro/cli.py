"""Command-line interface.

The CLI exposes the main workflows over CSV files so the system can be used
without writing Python:

``python -m repro discover``
    Learn transformations from two CSV columns (optionally with a golden
    matching) and print the covering set.

``python -m repro join``
    Run the end-to-end pipeline (row matching + discovery + transformation
    join) on two CSV files and write the joined table.

``python -m repro fit``
    Train once: run matching + discovery and save the resulting
    :class:`~repro.model.artifact.TransformationModel` as versioned JSON.

``python -m repro apply``
    Serve many times: load a saved model and join two CSV files with it —
    no matching, no re-discovery.

``python -m repro benchmark``
    Generate one of the built-in benchmark datasets to a directory as CSV
    files, so external tools can consume the same workloads.

``python -m repro serve``
    Serve a directory of saved models over HTTP: ``POST /join/<model>``
    joins a source batch against a target column with warm caches,
    ``GET /models`` and ``GET /stats`` introspect the registry.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.core.config import DiscoveryConfig
from repro.core.discovery import TransformationDiscovery
from repro.datasets.registry import available_datasets, check_scale, load_dataset
from repro.evaluation.report import format_table
from repro.join.pipeline import JoinPipeline
from repro.matching.row_matcher import (
    MATCHER_ENGINES,
    SETSIM_SIMILARITIES,
    MatchingConfig,
    RowMatcher,
    create_row_matcher,
)
from repro.matching.tokenize import TOKENIZERS
from repro.model import ModelFormatError, TransformationModel
from repro.parallel import ShardError
from repro.table.io import TableReadError, read_csv, write_csv
from repro.table.table import Table


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Learn string transformations that make differently formatted "
            "table columns equi-joinable (reproduction of Dargahi Nobari & "
            "Rafiei, ICDE 2022)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    discover = subparsers.add_parser(
        "discover", help="learn transformations between two CSV columns"
    )
    _add_pair_arguments(discover)
    discover.add_argument(
        "--top-k", type=int, default=5, help="how many top transformations to print"
    )

    join = subparsers.add_parser(
        "join", help="run the end-to-end transformation join on two CSV files"
    )
    _add_pair_arguments(join)
    join.add_argument(
        "--output", type=Path, required=True, help="path of the joined CSV to write"
    )
    join.add_argument(
        "--min-support",
        type=float,
        default=0.05,
        help="minimum coverage fraction for a transformation to be applied",
    )

    fit = subparsers.add_parser(
        "fit",
        help="learn a transformation model from two CSV files and save it",
    )
    _add_pair_arguments(fit)
    fit.add_argument(
        "--save",
        type=Path,
        required=True,
        help="path the fitted model JSON is written to",
    )
    fit.add_argument(
        "--min-support",
        type=float,
        default=0.05,
        help=(
            "minimum coverage fraction a transformation needs at apply time "
            "(recorded in the model)"
        ),
    )

    apply_cmd = subparsers.add_parser(
        "apply",
        help=(
            "join two CSV files with a previously fitted model "
            "(no re-discovery)"
        ),
    )
    apply_cmd.add_argument(
        "source_csv", type=Path, help="source table (CSV with header)"
    )
    apply_cmd.add_argument(
        "target_csv", type=Path, help="target table (CSV with header)"
    )
    apply_cmd.add_argument(
        "--model",
        type=Path,
        required=True,
        help="model JSON written by `repro fit --save`",
    )
    apply_cmd.add_argument(
        "--source-column", required=True, help="join column in the source table"
    )
    apply_cmd.add_argument(
        "--target-column", required=True, help="join column in the target table"
    )
    apply_cmd.add_argument(
        "--output", type=Path, required=True, help="path of the joined CSV to write"
    )
    apply_cmd.add_argument(
        "--num-workers",
        type=int,
        default=None,
        help=(
            "worker processes for the apply stage (1 = serial, 0 = all "
            "cores; default: REPRO_NUM_WORKERS or 1); results are identical "
            "at any worker count"
        ),
    )
    _add_fault_arguments(apply_cmd)

    benchmark = subparsers.add_parser(
        "benchmark", help="materialize a built-in benchmark dataset as CSV files"
    )
    benchmark.add_argument(
        "name", choices=available_datasets(), help="benchmark dataset to generate"
    )
    benchmark.add_argument(
        "--output-dir", type=Path, required=True, help="directory to write CSVs into"
    )
    benchmark.add_argument(
        "--scale", type=float, default=1.0, help="dataset scale (1.0 = paper scale)"
    )
    benchmark.add_argument("--seed", type=int, default=0, help="generator seed")

    serve = subparsers.add_parser(
        "serve",
        help="serve a directory of fitted models as a long-lived HTTP join service",
    )
    serve.add_argument(
        "model_dir",
        type=Path,
        help="directory of model JSON files written by `repro fit --save`; "
        "each file serves under its stem, e.g. products.json -> "
        "POST /join/products",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--num-workers",
        type=int,
        default=None,
        help=(
            "worker processes for the apply stage of each request (1 = "
            "serial, 0 = all cores; default: REPRO_NUM_WORKERS or 1)"
        ),
    )
    serve.add_argument(
        "--joiner-cache",
        type=int,
        default=16,
        help="compiled-joiner LRU capacity (default: %(default)s)",
    )
    serve.add_argument(
        "--index-cache",
        type=int,
        default=32,
        help="target-index LRU capacity (default: %(default)s)",
    )
    serve.add_argument(
        "--no-micro-batch",
        action="store_true",
        help="disable coalescing of concurrent same-model requests",
    )
    serve.add_argument(
        "--request-timeout-s",
        type=float,
        default=30.0,
        help=(
            "server-wide request deadline in seconds for requests that send "
            "no deadline_ms; expired requests answer 504 (0 = unbounded; "
            "default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        help=(
            "maximum concurrently executing join requests; more wait in a "
            "bounded queue (default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help=(
            "maximum queued join requests on top of --max-inflight; beyond "
            "this, requests are shed with 429 (default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--max-body-mb",
        type=float,
        default=8.0,
        help=(
            "request-body size cap in MiB; larger bodies answer 413 "
            "(0 = unbounded; default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help=(
            "consecutive typed failures that open a model's circuit "
            "breaker (default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--breaker-cooldown-s",
        type=float,
        default=2.0,
        help=(
            "open-breaker cool-down before a half-open probe is admitted "
            "(default: %(default)s)"
        ),
    )
    _add_fault_arguments(serve)
    return parser


def _add_pair_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("source_csv", type=Path, help="source table (CSV with header)")
    parser.add_argument("target_csv", type=Path, help="target table (CSV with header)")
    parser.add_argument(
        "--source-column", required=True, help="join column in the source table"
    )
    parser.add_argument(
        "--target-column", required=True, help="join column in the target table"
    )
    parser.add_argument(
        "--max-placeholders",
        type=int,
        default=3,
        help="maximum number of placeholders per transformation",
    )
    parser.add_argument(
        "--sample-size",
        type=int,
        default=0,
        help="sample size for candidate generation (0 = use all candidate pairs)",
    )
    parser.add_argument(
        "--matcher",
        choices=MATCHER_ENGINES,
        default=None,
        help=(
            "matching engine: ngram (Algorithm 1's representative n-grams) "
            "or setsim (prefix-filtered set-similarity); default: "
            "REPRO_MATCHER or ngram"
        ),
    )
    parser.add_argument(
        "--min-ngram", type=int, default=4, help="smallest n-gram used by the matcher"
    )
    parser.add_argument(
        "--max-ngram", type=int, default=20, help="largest n-gram used by the matcher"
    )
    parser.add_argument(
        "--setsim-similarity",
        choices=SETSIM_SIMILARITIES,
        default="jaccard",
        help="similarity measure of the setsim engine (default: %(default)s)",
    )
    parser.add_argument(
        "--setsim-threshold",
        type=float,
        default=0.7,
        help=(
            "setsim similarity threshold: in (0, 1] for jaccard/cosine, an "
            "absolute token count >= 1 for overlap (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--setsim-tokenizer",
        choices=TOKENIZERS,
        default="whitespace",
        help=(
            "setsim tokenization: whitespace for token-rich strings, qgram "
            "for short keys (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--setsim-qgram",
        type=int,
        default=4,
        help="q-gram size of the setsim qgram tokenizer (default: %(default)s)",
    )
    parser.add_argument(
        "--num-workers",
        type=int,
        default=None,
        help=(
            "worker processes for coverage, setsim matching and the apply "
            "stage (1 = serial, 0 = all cores; default: REPRO_NUM_WORKERS "
            "or 1; n-gram matching is always serial); results are identical "
            "at any worker count"
        ),
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=0.0,
        help=(
            "wall-clock budget in seconds for transformation discovery "
            "(0 = unbounded); when exhausted, the best cover found so far "
            "is returned and a warning printed to stderr"
        ),
    )
    _add_fault_arguments(parser)


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance knobs shared by every sharded stage."""
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=0.0,
        help=(
            "wall-clock bound in seconds for each sharded parallel map "
            "(0 = unbounded); shards that miss it are recomputed serially"
        ),
    )
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=2,
        help="pool retries per crashed or failed shard before falling back",
    )
    parser.add_argument(
        "--no-serial-fallback",
        action="store_true",
        help=(
            "fail with a typed error instead of recomputing failed shards "
            "serially in the parent process"
        ),
    )


class _UsageError(Exception):
    """An out-of-range flag value, reported as argparse's usage error."""


@contextmanager
def _flag_values() -> Iterator[None]:
    """Turn a ``ValueError`` from building config objects into a usage error.

    Every handler builds its config objects from the flags (or checks the
    flags) inside this block, before it reads any input, so an
    out-of-range value ends the way ``--num-workers abc`` does: one usage
    line and exit code 2.  A ``ValueError`` raised later, while running,
    keeps its traceback.
    """
    try:
        yield
    except ValueError as error:
        raise _UsageError(str(error)) from error


def _discovery_config(args: argparse.Namespace) -> DiscoveryConfig:
    config = DiscoveryConfig(
        max_placeholders=args.max_placeholders,
        sample_size=args.sample_size,
        time_budget_s=args.time_budget,
        task_timeout_s=args.task_timeout,
        shard_retries=args.shard_retries,
        serial_fallback=not args.no_serial_fallback,
    )
    if args.num_workers is not None:
        config = config.replace(num_workers=args.num_workers)
    return config


def _matcher(args: argparse.Namespace) -> RowMatcher:
    kwargs = dict(
        min_ngram=args.min_ngram,
        max_ngram=args.max_ngram,
        setsim_similarity=args.setsim_similarity,
        setsim_threshold=args.setsim_threshold,
        setsim_tokenizer=args.setsim_tokenizer,
        setsim_qgram=args.setsim_qgram,
        task_timeout_s=args.task_timeout,
        shard_retries=args.shard_retries,
        serial_fallback=not args.no_serial_fallback,
    )
    if args.matcher is not None:
        # Explicit flag wins; otherwise MatchingConfig reads REPRO_MATCHER.
        kwargs["engine"] = args.matcher
    if args.num_workers is not None:
        kwargs["num_workers"] = args.num_workers
    return create_row_matcher(MatchingConfig(**kwargs))


def _read_tables(args: argparse.Namespace) -> tuple[Table, Table]:
    """Read the source and target CSVs, and check that each has its join
    column.

    A missing column is a :class:`TableReadError` naming the file and the
    columns it has, so it ends as one ``error:`` line before any matching.
    """
    source = read_csv(args.source_csv)
    target = read_csv(args.target_csv)
    for path, table, column in (
        (args.source_csv, source, args.source_column),
        (args.target_csv, target, args.target_column),
    ):
        if column not in table:
            raise TableReadError(
                f"{path}: no column named {column!r}; "
                f"available: {list(table.column_names)}"
            )
    return source, target


def _warn_if_budget_exhausted(stats) -> None:
    """One stderr line when discovery degraded to a best-so-far result.

    Budget exhaustion is a *degraded success*, not a failure: the partial
    cover is valid for the rows that were processed, so the command still
    exits 0 — but the user must be told the result is partial.
    """
    if isinstance(stats, dict):
        exhausted = bool(stats.get("budget_exhausted"))
        stage = stats.get("budget_stage")
        rows = stats.get("rows_fully_processed")
    else:
        exhausted = stats.budget_exhausted
        stage = stats.budget_stage
        rows = stats.rows_fully_processed
    if not exhausted:
        return
    detail = f" during {stage}" if stage else ""
    if rows is not None:
        detail += f" after {rows} rows"
    print(
        f"warning: discovery time budget exhausted{detail}; "
        "result is the best cover found in time",
        file=sys.stderr,
    )


def run_discover(args: argparse.Namespace) -> int:
    """The ``discover`` sub-command."""
    with _flag_values():
        matcher = _matcher(args)
        engine = TransformationDiscovery(
            _discovery_config(args).replace(top_k=args.top_k)
        )
    source, target = _read_tables(args)
    candidates = matcher.match(
        source,
        target,
        source_column=args.source_column,
        target_column=args.target_column,
    )
    result = engine.discover(candidates)
    _warn_if_budget_exhausted(result.stats)

    print(f"candidate row pairs: {len(candidates)}")
    print(f"coverage of best transformation: {result.top_coverage:.3f}")
    print(f"coverage of covering set:        {result.cover_coverage:.3f}")
    print()
    print("top transformations:")
    for coverage in result.top:
        print(f"  covers {coverage.coverage:5d}: {coverage.transformation}")
    print()
    print("covering set:")
    for coverage in result.cover:
        print(f"  covers {coverage.coverage:5d}: {coverage.transformation}")
    return 0


def run_join(args: argparse.Namespace) -> int:
    """The ``join`` sub-command."""
    with _flag_values():
        pipeline = JoinPipeline(
            matcher=_matcher(args),
            discovery_config=_discovery_config(args),
            min_support=args.min_support,
            materialize=True,
            num_workers=args.num_workers,
            task_timeout_s=args.task_timeout,
            shard_retries=args.shard_retries,
            serial_fallback=not args.no_serial_fallback,
        )
    source, target = _read_tables(args)
    outcome = pipeline.run(
        source,
        target,
        source_column=args.source_column,
        target_column=args.target_column,
    )
    _warn_if_budget_exhausted(outcome.discovery.stats)
    joined = outcome.joined_table
    assert joined is not None
    write_csv(joined, args.output)
    print(f"candidate row pairs: {outcome.candidate_pairs}")
    print(f"transformations applied: {len(outcome.discovery.cover)}")
    for coverage in outcome.discovery.cover:
        print(f"  covers {coverage.coverage:5d}: {coverage.transformation}")
    print(f"joined rows: {outcome.join.num_pairs}")
    print(f"wrote {args.output}")
    return 0


def run_fit(args: argparse.Namespace) -> int:
    """The ``fit`` sub-command: train once, save the model artifact."""
    with _flag_values():
        pipeline = JoinPipeline(
            matcher=_matcher(args),
            discovery_config=_discovery_config(args),
            min_support=args.min_support,
            task_timeout_s=args.task_timeout,
            shard_retries=args.shard_retries,
            serial_fallback=not args.no_serial_fallback,
        )
    source, target = _read_tables(args)
    model = pipeline.fit(
        source,
        target,
        source_column=args.source_column,
        target_column=args.target_column,
    )
    _warn_if_budget_exhausted(model.stats)
    try:
        path = model.save(args.save)
    except OSError as error:
        # Same one-line error contract as `apply`'s load failures — an
        # unwritable path must not bury the message in a traceback.
        print(f"error: cannot write model to {args.save}: {error}", file=sys.stderr)
        return 1
    print(f"candidate row pairs: {model.num_candidate_pairs}")
    print(model.describe())
    print(f"wrote {path}")
    return 0


def run_apply(args: argparse.Namespace) -> int:
    """The ``apply`` sub-command: join with a saved model, no re-discovery."""
    # One code path for "apply a model to a table pair": the pipeline's
    # serving method (which joins once and materializes from the pairs).
    with _flag_values():
        pipeline = JoinPipeline(
            materialize=True,
            num_workers=args.num_workers,
            task_timeout_s=args.task_timeout,
            shard_retries=args.shard_retries,
            serial_fallback=not args.no_serial_fallback,
        )
    try:
        model = TransformationModel.load(args.model)
    except (ModelFormatError, OSError) as error:
        # Corrupt, foreign, wrong-version and missing/unreadable model files
        # all get the same clean one-line error contract.
        print(f"error: {error}", file=sys.stderr)
        return 1
    source, target = _read_tables(args)
    applied = pipeline.apply(
        model,
        source,
        target,
        source_column=args.source_column,
        target_column=args.target_column,
    )
    joined = applied.joined_table
    assert joined is not None
    write_csv(joined, args.output)
    print(f"model: {args.model} ({model.num_transformations} transformations)")
    print(f"transformations applied: {len(applied.applied_transformations)}")
    for transformation in applied.applied_transformations:
        print(f"  {transformation}")
    print(f"joined rows: {applied.join.num_pairs}")
    print(f"wrote {args.output}")
    return 0


def run_benchmark(args: argparse.Namespace) -> int:
    """The ``benchmark`` sub-command."""
    with _flag_values():
        check_scale(args.scale)
    dataset = load_dataset(args.name, scale=args.scale, seed=args.seed)
    output_dir = args.output_dir
    rows = []
    for pair in dataset:
        pair.save(output_dir)
        rows.append(
            {
                "pair": pair.name,
                "source_rows": pair.num_source_rows,
                "target_rows": pair.num_target_rows,
                "golden_pairs": len(pair.golden_pairs),
            }
        )
    print(format_table(rows, title=f"dataset {args.name} (scale={args.scale})"))
    print(f"wrote {3 * len(dataset)} CSV files to {output_dir}")
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` sub-command: a long-lived HTTP join service."""
    # Imported here, not at module top: the serving stack (HTTP server,
    # registry, caches) is only needed by this one sub-command.
    from repro.serve import JoinServer

    if not args.model_dir.is_dir():
        print(f"error: model directory {args.model_dir} not found", file=sys.stderr)
        return 1
    # The server checks its settings before it binds the port.
    with _flag_values():
        server = JoinServer(
            args.model_dir,
            host=args.host,
            port=args.port,
            num_workers=args.num_workers,
            joiner_cache_capacity=args.joiner_cache,
            index_cache_capacity=args.index_cache,
            micro_batch=not args.no_micro_batch,
            task_timeout_s=args.task_timeout,
            shard_retries=args.shard_retries,
            serial_fallback=not args.no_serial_fallback,
            request_timeout_s=args.request_timeout_s,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            max_body_bytes=int(args.max_body_mb * 1024 * 1024),
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown_s,
        )
    with server:
        server.install_signal_handlers()
        models = server.engine.registry.list_models()
        print(f"serving {len(models)} model(s) from {args.model_dir}")
        for entry in models:
            if entry["ok"]:
                status = f"{entry['num_transformations']} transformations"
            else:
                status = f"load error: {entry['error']}"
            print(f"  {entry['name']}: {status}")
        print(f"listening on {server.url} (SIGTERM/SIGINT drains and exits)")
        server.serve_forever()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "discover": run_discover,
        "join": run_join,
        "fit": run_fit,
        "apply": run_apply,
        "benchmark": run_benchmark,
        "serve": run_serve,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as error:
        parser.error(str(error))
    except (TableReadError, ShardError) as error:
        # Unreadable input and unrecoverable shard failures (crash/timeout
        # with serial fallback disabled, or the fallback itself failing)
        # share the one-line stderr contract: no traceback, exit code 1.
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
