"""The traced run: fit and apply composed layer by layer, with spans.

The composition calls each layer's public functions in the order the
pipeline does, with a span around every call, and must reproduce the
untraced run exactly: the same candidate pairs, cover and joined pairs.
Per-layer metrics come from the spans and from counts taken at the same
call boundaries.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from time import perf_counter

from repro.core.cover import cover_fraction, greedy_minimal_cover
from repro.core.coverage import CoverageComputer
from repro.core.discovery import DiscoveryResult
from repro.core.generation import TransformationGenerator
from repro.core.skeletons import SkeletonBuilder
from repro.core.stats import DiscoveryStats
from repro.matching.index import InvertedIndex
from repro.matching.row_matcher import NGramRowMatcher, emit_candidate_pairs
from repro.model.apply import TransformationApplier
from repro.model.artifact import TransformationModel
from repro.parallel.executor import tuned_num_workers
from repro.table.io import read_csv

from perfbench.session import (
    COLUMN,
    MODEL_NAME,
    RunState,
    discovery_config,
    fit,
    matching_config,
    model_signature,
    prf,
)
from perfbench.tracing import Tracer

#: Worker count the parallel speedups compare against serial.
SPEEDUP_WORKERS = 2


def _coverage(pairs, transformations, config, stats):
    computer = CoverageComputer(
        pairs,
        use_unit_cache=config.use_unit_cache,
        stats=stats,
        num_workers=config.num_workers,
        min_rows_per_worker=config.min_rows_per_worker,
        task_timeout=config.task_timeout_s or None,
        shard_retries=config.shard_retries,
        serial_fallback=config.serial_fallback,
    )
    return computer.coverage_of_all(
        transformations,
        batched=config.use_batched_coverage and config.use_unit_cache,
    )


def _serial_match(tracer: Tracer, config, source_values, target_values):
    with tracer.span("matching.index_build"):
        index = InvertedIndex.build(
            target_values,
            min_size=config.min_ngram,
            max_size=config.max_ngram,
            lowercase=config.lowercase,
            stop_gram_cap=config.stop_gram_cap,
        )
    with tracer.span("matching.representatives"):
        representatives = index.representatives(source_values)
    with tracer.span("matching.emit"):
        pairs = emit_candidate_pairs(
            source_values,
            target_values,
            index,
            representatives,
            config.max_candidates_per_row,
        )
    return pairs, index


def _timed_fit(spec, source, target) -> float:
    started = perf_counter()
    fit(spec, source, target)
    return perf_counter() - started


def traced_fit(tracer: Tracer, state: RunState, checks: list[str]) -> dict:
    """Matching then discovery, one public call per span; then matching and
    coverage again at :data:`SPEEDUP_WORKERS` workers, for the speedups."""
    spec = state.spec
    source, target = state.setup.fit_input(spec)
    source_values, target_values = list(source[COLUMN]), list(target[COLUMN])
    mconfig = matching_config(spec)
    dconfig = discovery_config(spec)
    # The untraced public call, timed right before and right after the
    # composition, is the baseline of the tracing overhead.
    untraced_s = _timed_fit(spec, source, target)

    with tracer.span("fit"):
        with tracer.span("matching.match"):
            pairs, index = _serial_match(tracer, mconfig, source_values, target_values)
        with tracer.span("core.discover"):
            stats = DiscoveryStats(num_pairs=len(pairs))
            sample = pairs
            if 0 < dconfig.sample_size < len(pairs):
                sample = random.Random(dconfig.sample_seed).sample(pairs, dconfig.sample_size)
            builder = SkeletonBuilder(dconfig)
            generator = TransformationGenerator(dconfig)
            unique: dict = {}
            for pair in sample:
                with tracer.span("core.placeholders"):
                    skeletons = builder.build(pair.source, pair.target)
                with tracer.span("core.units"):
                    row_transformations = list(generator.from_row(pair.source, skeletons))
                with tracer.span("core.dedup"):
                    for transformation in row_transformations:
                        stats.generated_transformations += 1
                        unique.setdefault(transformation, None)
            transformations = list(unique)
            stats.unique_transformations = len(transformations)
            with tracer.span("core.coverage"):
                results = _coverage(pairs, transformations, dconfig, stats)
            with tracer.span("core.cover"):
                cover = greedy_minimal_cover(
                    [r for r in results if r.coverage > 0],
                    min_support=dconfig.min_support,
                )
        model = TransformationModel.from_discovery(
            DiscoveryResult(pairs=pairs, cover=cover, stats=stats),
            config=dconfig,
            min_support=0.05,
        )

    untraced_s = min(untraced_s, _timed_fit(spec, source, target))

    # The same calls at SPEEDUP_WORKERS workers, for the parallel speedups,
    # with the small-input threshold off so that the pools really run on
    # these inputs; effective_workers reports what the default would pick.
    parallel = {"num_workers": SPEEDUP_WORKERS, "min_rows_per_worker": 0}
    with tracer.span("parallel"):
        with tracer.span("parallel.match"):
            other_pairs = NGramRowMatcher(replace(mconfig, **parallel)).match_values(
                source_values, target_values
            )
        with tracer.span("parallel.coverage"):
            other_results = _coverage(
                pairs, transformations, replace(dconfig, **parallel), DiscoveryStats()
            )

    reference = state.model
    keys = [(p.source_row, p.target_row) for p in pairs]
    if keys != state.candidate_keys:
        checks.append("trace: candidate pairs differ from JoinPipeline.fit")
    if keys != [(p.source_row, p.target_row) for p in other_pairs]:
        checks.append(f"trace: candidate pairs differ at {SPEEDUP_WORKERS} workers")
    if [r.covered_mask for r in results] != [r.covered_mask for r in other_results]:
        checks.append(f"trace: coverage differs at {SPEEDUP_WORKERS} workers")
    if model_signature(model) != model_signature(reference):
        checks.append("trace: cover differs from JoinPipeline.fit")

    total = tracer.total
    golden = sum(1 for p in pairs if p.source_row == p.target_row)
    generated, num_unique = stats.generated_transformations, stats.unique_transformations
    return {
        "matching.index_build_s": total("matching.index_build"),
        "matching.representatives_s": total("matching.representatives"),
        "matching.emit_s": total("matching.emit"),
        "matching.match_s": total("matching.match"),
        "matching.index_ngrams": index.num_ngrams,
        "matching.candidate_pairs": len(pairs),
        "matching.candidates_per_row": len(pairs) / len(source_values),
        "matching.useful_ratio": golden / len(pairs) if pairs else 0.0,
        "core.placeholders_s": total("core.placeholders"),
        "core.units_s": total("core.units"),
        "core.dedup_s": total("core.dedup"),
        "core.coverage_s": total("core.coverage"),
        "core.cover_s": total("core.cover"),
        "core.generated": generated,
        "core.unique": num_unique,
        "core.dedup_ratio": (generated - num_unique) / generated if generated else 0.0,
        "core.cache_hit_ratio": stats.cache_hit_ratio,
        "core.applications": stats.applications,
        "core.cover_size": len(cover),
        "core.cover_fraction": cover_fraction(cover, len(pairs)),
        "core.useful_ratio": len(cover) / num_unique if num_unique else 0.0,
        "parallel.match_speedup": total("matching.match") / total("parallel.match"),
        "parallel.coverage_speedup": total("core.coverage") / total("parallel.coverage"),
        "parallel.effective_workers": tuned_num_workers(SPEEDUP_WORKERS, len(source_values)),
        "trace.overhead_ratio": total("fit") / untraced_s - 1.0,
    }


def traced_apply(tracer: Tracer, state: RunState, checks: list[str]) -> dict:
    """read_csv, load, compile, transform, index build, then the probe."""
    directory = state.setup.directory
    with tracer.span("apply"):
        with tracer.span("table.read_csv"):
            source = read_csv(directory / "source.csv")
            target = read_csv(directory / "target.csv")
        with tracer.span("model.load"):
            model = TransformationModel.load(directory / "models" / f"{MODEL_NAME}.json")
        joiner = model.joiner(num_workers=1)
        source_values, target_values = list(source[COLUMN]), list(target[COLUMN])
        with tracer.span("model.compile"):
            applier = TransformationApplier(joiner.transformations)
        with tracer.span("model.transform"):
            outputs = applier.transform_rows(source_values, num_workers=1)
        with tracer.span("join.target_index"):
            index = joiner.build_target_index(target_values)
        with tracer.span("join.join_values"):
            result = joiner.join_values(source_values, target_values, target_index=index)
    if result.pairs != state.apply_pairs:
        checks.append("trace: joined pairs differ from JoinPipeline.apply")
    compile_s, transform_s = tracer.total("model.compile"), tracer.total("model.transform")
    gold = {(row, row) for row in range(len(source_values))}
    precision, recall, _ = prf(result.pairs, gold)
    return {
        "table.read_csv_s": tracer.total("table.read_csv"),
        "model.load_s": tracer.total("model.load"),
        "model.compile_s": compile_s,
        "model.transform_s": transform_s,
        "model.outputs_per_row": sum(map(len, outputs.values())) / len(source_values),
        "join.target_index_s": tracer.total("join.target_index"),
        # join_values with a prebuilt index compiles and transforms again.
        "join.probe_s": tracer.total("join.join_values") - compile_s - transform_s,
        "join.pairs": len(result.pairs),
        "join.precision": precision,
        "join.recall": recall,
    }


def _replay(tracer: Tracer, prefix: str, joiner, body: bytes) -> None:
    """One request body through decode, the joiner and encode."""
    with tracer.span(f"{prefix}.decode"):
        payload = json.loads(body)
    with tracer.span(f"{prefix}.join"):
        result = joiner.join_values(payload["source"], payload["target"])
    with tracer.span(f"{prefix}.encode"):
        json.dumps({
            "pairs": [list(pair) for pair in result.pairs],
            "matched_by": [repr(result.matched_by[pair]) for pair in result.pairs],
        })


def serve_layer(tracer: Tracer, state: RunState) -> dict:
    """Counters from ``/stats`` plus an offline split of a hot and a cold request."""
    serve = state.serve
    stats = serve.stats
    registry = stats["engine"]["registry"]
    batcher = stats["engine"]["micro_batcher"]

    def hit_ratio(cache: dict) -> float:
        lookups = cache["hits"] + cache["misses"]
        return cache["hits"] / lookups if lookups else 0.0

    traffic = serve.traffic
    hot_body = traffic.bodies[0]
    cold_body = traffic.bodies[traffic.num_hot]
    hot_joiner = TransformationModel.loads(state.model.dumps()).joiner(num_workers=1)
    payload = json.loads(hot_body)
    hot_joiner.join_values(payload["source"], payload["target"])  # warm it
    with tracer.span("serve"):
        _replay(tracer, "serve.hot", hot_joiner, hot_body)
        cold_joiner = TransformationModel.loads(state.model.dumps()).joiner(num_workers=1)
        _replay(tracer, "serve.cold", cold_joiner, cold_body)
    hot_s = sum(tracer.total(f"serve.hot.{part}") for part in ("decode", "join", "encode"))
    metrics = {
        "serve.p50_ms": serve.metrics["p50_ms"],
        "serve.p99_ms": serve.metrics["p99_ms"],
        "serve.open_samples": serve.metrics["open_requests"],
        "serve.capacity_rps": serve.metrics["capacity_rps"],
        "serve.target_index_hit_ratio": hit_ratio(registry["target_index_cache"]),
        "serve.joiner_hit_ratio": hit_ratio(registry["joiner_cache"]),
        "serve.coalesced_ratio": (
            batcher["coalesced_requests"] / batcher["requests"] if batcher["requests"] else 0.0
        ),
        "serve.shed": stats["resilience"]["shed"],
        "serve.deadline_exceeded": stats["resilience"]["deadline_exceeded"],
        "serve.errors": stats["errors"],
        "serve.generator_lag_ms": serve.metrics["generator_lag_ms"],
        "serve.http_overhead_ms": serve.metrics["p50_ms"] - hot_s * 1000.0,
    }
    for kind in ("hot", "cold"):
        for part in ("decode", "join", "encode"):
            metrics[f"serve.{kind}_{part}_s"] = tracer.total(f"serve.{kind}.{part}")
    return metrics


def traced_run(state: RunState) -> tuple[dict, Tracer, list[str]]:
    """Every per-layer metric, the tracer holding the spans, and failed checks."""
    tracer = Tracer()
    checks: list[str] = []
    metrics = traced_fit(tracer, state, checks)
    metrics.update(traced_apply(tracer, state, checks))
    metrics.update(serve_layer(tracer, state))
    return metrics, tracer, checks
