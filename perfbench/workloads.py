"""Workload specifications and the metric catalogue of the benchmark.

Every workload generates its inputs from the ``--seed`` argument and
measures one operation of the program -- a fit, an apply or a served
request -- for the whole ``--seconds`` budget.  The end-to-end metrics are
named after what they measure on every workload (``op_ms`` is a fit's
time on ``fit-wide``, an apply's on ``apply``, a request's on ``serve``), so
each workload reports all of them about its own operation.  The traced run
also runs the other phases at a small fixed size, so every per-layer
metric exists on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: A served request that takes longer than this (client side, measured from
#: when it was due) counts against ``ok_ratio``.  About ten times the warm
#: p50 of the ``serve`` workload on a 2-core host, so only stalls count.
LATENCY_LIMIT_MS = 100.0

#: Smallest ``join_f1`` a run may report and still count as correct.
MIN_JOIN_F1 = 0.9

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "rows_per_s": "rows/s",
    "ok_ratio": "ratio",
    "join_f1": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "matching.index_build_s": "s",
    "matching.representatives_s": "s",
    "matching.emit_s": "s",
    "matching.match_s": "s",
    "matching.index_ngrams": "count",
    "matching.candidate_pairs": "count",
    "matching.candidates_per_row": "count",
    "matching.useful_ratio": "ratio",
    "core.placeholders_s": "s",
    "core.units_s": "s",
    "core.dedup_s": "s",
    "core.coverage_s": "s",
    "core.cover_s": "s",
    "core.generated": "count",
    "core.unique": "count",
    "core.dedup_ratio": "ratio",
    "core.cache_hit_ratio": "ratio",
    "core.applications": "count",
    "core.cover_size": "count",
    "core.cover_fraction": "ratio",
    "core.useful_ratio": "ratio",
    "parallel.match_speedup": "x",
    "parallel.coverage_speedup": "x",
    "parallel.effective_workers": "count",
    "table.read_csv_s": "s",
    "model.load_s": "s",
    "model.compile_s": "s",
    "model.transform_s": "s",
    "model.outputs_per_row": "count",
    "join.target_index_s": "s",
    "join.probe_s": "s",
    "join.pairs": "count",
    "join.precision": "ratio",
    "join.recall": "ratio",
    "serve.p50_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.open_samples": "count",
    "serve.capacity_rps": "1/s",
    "serve.target_index_hit_ratio": "ratio",
    "serve.joiner_hit_ratio": "ratio",
    "serve.coalesced_ratio": "ratio",
    "serve.shed": "count",
    "serve.deadline_exceeded": "count",
    "serve.errors": "count",
    "serve.generator_lag_ms": "ms",
    "serve.hot_decode_s": "s",
    "serve.hot_join_s": "s",
    "serve.hot_encode_s": "s",
    "serve.cold_decode_s": "s",
    "serve.cold_join_s": "s",
    "serve.cold_encode_s": "s",
    "serve.http_overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class ServeShape:
    """The traffic of one serve phase.

    Request ``i`` posts source batch ``i mod batches`` against the hot
    target, except every ``cold_every``-th request, which posts against the
    next target of a pool of ``pool`` distinct targets (windows of the
    target column shifted by ``stride`` rows).  The pool is larger than the
    server's target-index cache, so those requests miss and evict.

    The phase runs in ``rounds``; each round is an open loop at
    ``rate_rps`` for ``open_share`` of the round, then a closed loop on 2
    connections for the rest.
    """

    batch_rows: int
    target_rows: int
    pool: int = 64
    stride: int = 4
    cold_every: int = 8
    rate_rps: float = 70.0
    open_share: float = 0.72
    rounds: int = 5
    #: Every n-th hot response is verified (every cold one is).
    verify_every: int = 16


@dataclass(frozen=True)
class Spec:
    """One workload: generated input shape plus the phase it measures."""

    name: str
    primary: str  # "fit", "apply" or "serve"
    rows: int
    min_length: int
    max_length: int
    transformations: int
    #: Rows the fit sees: all of them on the fit workloads, the leading
    #: slice on ``apply`` and ``serve`` (where the fit is set-up).  The
    #: serve phase needs ``target_rows + pool * stride`` rows.
    fit_rows: int
    sample_size: int
    serve: ServeShape
    #: Rows of the warm-up fit run during set-up of the fit workloads.
    warm_rows: int = 0
    #: Set-ups per run; ``setup_s`` is their median.  The measured phase
    #: runs in as many parts, with the extra set-ups between them; the serve
    #: phase has as many rounds.
    setups: int = 5
    #: Budgets of the phases a traced run adds besides the primary one.
    apply_s: float = 1.0
    serve_s: float = 3.0
    #: Source rows whose joined pairs are checked against the
    #: ``Transformation.apply`` oracle.
    oracle_rows: int = 200


#: Traffic the traced run of a non-serve workload sends to its own model.
SMALL_SERVE = ServeShape(batch_rows=32, target_rows=256, rate_rps=100.0, rounds=2)

SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="fit-wide",
            primary="fit",
            rows=300,
            min_length=20,
            max_length=35,
            transformations=3,
            fit_rows=300,
            sample_size=0,
            warm_rows=150,
            serve=SMALL_SERVE,
        ),
        Spec(
            name="apply",
            primary="apply",
            rows=30_000,
            min_length=20,
            max_length=35,
            transformations=10,
            fit_rows=1000,
            sample_size=200,
            serve=SMALL_SERVE,
        ),
        Spec(
            name="serve",
            primary="serve",
            rows=2000 + 64 * 16,
            min_length=20,
            max_length=35,
            transformations=3,
            fit_rows=1000,
            sample_size=200,
            serve=ServeShape(batch_rows=256, target_rows=2000, stride=16),
        ),
    )
}


def tiny(spec: Spec) -> Spec:
    """A seconds-long version of *spec* with the same phases (for tests)."""
    return replace(
        spec,
        rows=120,
        fit_rows=120,
        sample_size=min(spec.sample_size, 40),
        warm_rows=min(spec.warm_rows, 40),
        setups=2,
        apply_s=0.05,
        serve_s=0.4,
        oracle_rows=20,
        serve=replace(
            spec.serve,
            batch_rows=8,
            target_rows=40,
            pool=4,
            stride=2,
            cold_every=4,
            rate_rps=100.0,
            rounds=2,
            verify_every=2,
        ),
    )
