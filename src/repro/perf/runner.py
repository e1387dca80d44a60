"""The size-ladder benchmark runner behind ``BENCH_*.json``.

The runner generates one synthetic table pair per ladder rung (same seed for
every engine, so all engines see identical inputs), times each pipeline stage
with :class:`~repro.utils.timing.StageTimer`-compatible wall clocks, and
writes a JSON report whose schema is stable enough to diff across PRs:

.. code-block:: text

    {
      "benchmark": "discovery",
      "host": {"cpu_count": ..., "start_method": ...},   # parallel context
      "config": {...generation and engine parameters, "workers": [1, 2, ...]},
      "rungs": [
        {
          "rows": 10000,
          "engines": {
            "seed":      {"stages": {...}, "total_s": ..., "num_pairs": ...},
            "packed":    {"stages": {...}, "total_s": ..., "num_pairs": ...},
            "packed-w4": {..., "num_workers": 4}          # workers axis
          },
          "identical": true,        # every engine/worker variant agrees
          "speedup": 7.9,           # seed total_s / packed total_s
          "parallel": {
            "packed-w4": {"workers": 4, "speedup_vs_serial": ..., "efficiency": ...}
          }
        },
        ...
      ]
    }

``identical`` is computed from the actual candidate-pair lists and discovered
covers, not from counts — the harness doubles as a large-scale equivalence
test for the packed fast path and the process-sharded variants.  The
``host`` block (CPU count, start method) is what makes multi-worker numbers
interpretable across machines: an ``efficiency`` of 0.5 at 4 workers is poor
scaling on 8 cores and the physical ceiling on 2.
"""

from __future__ import annotations

import json
import os
import platform
import time
from collections.abc import Sequence
from pathlib import Path

from repro.core.config import DiscoveryConfig
from repro.core.discovery import DiscoveryResult, TransformationDiscovery
from repro.datasets.synthetic import SyntheticConfig, generate_table_pair
from repro.join.joiner import TransformationJoiner
from repro.matching.reference import ReferenceRowMatcher
from repro.matching.row_matcher import MatchingConfig, NGramRowMatcher, RowMatcher
from repro.matching.setsim import SetSimRowMatcher
from repro.parallel.executor import default_start_method, tuned_num_workers

#: The default synthetic size ladder (number of rows per rung).
DEFAULT_LADDER: tuple[int, ...] = (1000, 5000, 10000, 25000)

#: Engines the full (matching + discovery) pipeline knows how to build.
#: "seed" is the preserved original implementation (reference matcher +
#: unbatched coverage); "packed" is the packed-index matcher + trie-batched
#: coverage.
ENGINES: tuple[str, ...] = ("seed", "packed")

#: Engines of the matching-only benchmark: the pipeline engines plus
#: "setsim", the prefix-filtered set-similarity matcher.  setsim is a
#: *different candidate-generation regime* (token-set similarity, not
#: representative n-grams), so it is compared head-to-head on wall time and
#: candidate pruning, never on match-set identity with the n-gram family.
MATCHING_ENGINES: tuple[str, ...] = ("seed", "packed", "setsim")

#: Configuration of the setsim engine on the synthetic ladder.  The
#: synthetic rows are separator-free alphanumeric strings, so the engine
#: tokenizes into character q-grams; the threshold is calibrated so true
#: (source, transformed-target) pairs — which share the transformation's
#: substring placeholders — clear it while unrelated random rows do not.
SETSIM_BENCH_SIMILARITY = "jaccard"
SETSIM_BENCH_THRESHOLD = 0.2
SETSIM_BENCH_TOKENIZER = "qgram"
SETSIM_BENCH_QGRAM = 4

#: The default workers axis: serial only.  The checked-in BENCH files are
#: regenerated with ``--workers 1,2,4,8``.
DEFAULT_WORKERS: tuple[int, ...] = (1,)


def _engine_family(label: str) -> str:
    """The candidate-generation family of an engine/worker label.

    "seed", "packed" and every "packed-w<n>" variant are the n-gram family
    (they must produce identical pairs); "setsim" and its worker variants
    are the set-similarity family.  Identity is only ever asserted *within*
    a family — across families the engines legitimately differ.
    """
    return "setsim" if label.startswith("setsim") else "ngram"


def host_metadata() -> dict:
    """Host facts that make multi-worker numbers comparable across machines.

    Parallel speedup is meaningless without knowing how many cores the run
    had, and a timing is meaningless without knowing which kernel tier
    produced it — every BENCH payload embeds this block.  ``kernels`` is
    the walker tier, ``python`` since the numpy apply walker was deleted
    (see :mod:`repro.kernels`), so a baseline recorded with that walker
    (``numpy``) is refused rather than compared; ``numpy`` is the
    importable numpy version or ``None``.
    """
    from repro import kernels  # noqa: PLC0415

    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "start_method": default_start_method(),
        "kernels": kernels.active_tier(),
        "numpy": kernels.numpy_version(),
    }


class BenchmarkRunner:
    """Time the matching/discovery hot path on a synthetic size ladder.

    Parameters
    ----------
    ladder:
        Row counts to sweep, ascending.
    row_length:
        Fixed synthetic row length (the paper's Figure 4a uses 28).
    sample_size:
        Discovery generation sample (Section 5.3); keeps the number of
        candidate transformations roughly constant across rungs so the
        coverage stage scales with rows only.
    seed:
        Base RNG seed; rung *n* uses ``seed + n`` so inputs are reproducible
        and identical across engines.
    workers:
        Worker counts swept for the engines with a sharded stage: packed on
        the discovery ladder (coverage shards) and setsim on the matching
        ladder.  The seed engine and packed matching are serial.  ``1``
        records the serial run under the plain engine key and is always
        included — it is the baseline of every speedup/efficiency figure;
        higher counts are recorded as ``<engine>-w<n>`` with
        speedup-vs-serial and parallel efficiency per rung.
    output_dir:
        Where :meth:`write` puts ``BENCH_<name>.json`` (default: cwd).
    """

    def __init__(
        self,
        *,
        ladder: Sequence[int] = DEFAULT_LADDER,
        row_length: int = 28,
        sample_size: int = 200,
        seed: int = 0,
        workers: Sequence[int] = DEFAULT_WORKERS,
        output_dir: str | Path | None = None,
    ) -> None:
        if not ladder:
            raise ValueError("ladder must contain at least one rung")
        if any(rung <= 0 for rung in ladder):
            raise ValueError(f"ladder rungs must be positive, got {list(ladder)}")
        if not workers:
            raise ValueError("workers must contain at least one worker count")
        if any(count <= 0 for count in workers):
            raise ValueError(
                f"worker counts must be positive, got {list(workers)}"
            )
        self.ladder = tuple(ladder)
        self.row_length = row_length
        self.sample_size = sample_size
        self.seed = seed
        # The serial packed run is the baseline every speedup/efficiency
        # figure is computed against, so it always joins the axis.
        self.workers = tuple(dict.fromkeys((1, *workers)))
        self.output_dir = Path(output_dir) if output_dir is not None else Path.cwd()

    # ------------------------------------------------------------------ #
    # Engines and inputs
    # ------------------------------------------------------------------ #
    def matcher_for(self, engine: str, num_workers: int = 1) -> RowMatcher:
        """The row matcher of *engine* ("seed", "packed" or "setsim")."""
        if engine == "seed":
            if num_workers != 1:
                raise ValueError("the seed engine is serial; num_workers must be 1")
            return ReferenceRowMatcher(MatchingConfig())
        if engine == "packed":
            return NGramRowMatcher(MatchingConfig(num_workers=num_workers))
        if engine == "setsim":
            return SetSimRowMatcher(
                MatchingConfig(
                    engine="setsim",
                    setsim_similarity=SETSIM_BENCH_SIMILARITY,
                    setsim_threshold=SETSIM_BENCH_THRESHOLD,
                    setsim_tokenizer=SETSIM_BENCH_TOKENIZER,
                    setsim_qgram=SETSIM_BENCH_QGRAM,
                    num_workers=num_workers,
                )
            )
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {MATCHING_ENGINES}"
        )

    def discovery_for(self, engine: str, num_workers: int = 1) -> TransformationDiscovery:
        """The discovery engine of *engine* ("seed" or "packed")."""
        if engine == "seed":
            if num_workers != 1:
                raise ValueError("the seed engine is serial; num_workers must be 1")
            config = DiscoveryConfig(
                sample_size=self.sample_size,
                use_batched_coverage=False,
                num_workers=1,
            )
        elif engine == "packed":
            config = DiscoveryConfig(
                sample_size=self.sample_size, num_workers=num_workers
            )
        elif engine == "setsim":
            # setsim is a matching-only engine: it swaps the candidate
            # generator, not the discovery/coverage machinery, so it has no
            # place on the discovery ladder.
            raise ValueError(
                "the setsim engine benchmarks matching only; "
                "run it on the matching ladder"
            )
        else:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        return TransformationDiscovery(config)

    def rung_values(
        self, num_rows: int, *, row_length: int | None = None
    ) -> tuple[list[str], list[str]]:
        """The (source, target) column values of one ladder rung."""
        length = self.row_length if row_length is None else row_length
        config = SyntheticConfig(
            num_rows=num_rows,
            min_length=length,
            max_length=length,
            seed=self.seed + num_rows,
        )
        pair, _ = generate_table_pair(config)
        return list(pair.source["value"]), list(pair.target["value"])

    # ------------------------------------------------------------------ #
    # Single rungs
    # ------------------------------------------------------------------ #
    def matching_rung(
        self,
        num_rows: int,
        engine: str,
        *,
        num_workers: int = 1,
        values: tuple[list[str], list[str]] | None = None,
    ) -> tuple[dict, list]:
        """Time row matching at one rung; returns (record, pairs).

        setsim records additionally carry the candidate-pruning statistics
        (``all_pairs``, ``candidates_post_filter``, ``pruning_ratio``) — the
        pruning ratio is the headline number of the engine comparison: it is
        the fraction of the brute-force pair space that survived the
        prefix/size/position filters and paid for exact verification.
        """
        source_values, target_values = values or self.rung_values(num_rows)
        matcher = self.matcher_for(engine, num_workers)
        extra: dict = {}
        if isinstance(matcher, SetSimRowMatcher):
            started = time.perf_counter()
            pairs, stats = matcher.match_values_with_stats(
                source_values, target_values
            )
            elapsed = time.perf_counter() - started
            extra = {
                "all_pairs": stats.all_pairs,
                "candidates_post_filter": stats.candidates,
                "pruning_ratio": round(stats.pruning_ratio, 6),
            }
        else:
            started = time.perf_counter()
            pairs = matcher.match_values(source_values, target_values)
            elapsed = time.perf_counter() - started
        record = {
            "stages": {"row_matching": elapsed},
            "total_s": elapsed,
            "num_pairs": len(pairs),
            "num_workers": num_workers,
            # What the small-input fast path actually ran with (matching
            # shards over source rows) — the honest denominator for any
            # parallel-efficiency reading of this record.
            "effective_workers": tuned_num_workers(
                num_workers, len(source_values)
            ),
            **extra,
        }
        return record, pairs

    def discovery_rung(
        self,
        num_rows: int,
        engine: str,
        *,
        num_workers: int = 1,
        row_length: int | None = None,
        values: tuple[list[str], list[str]] | None = None,
    ) -> tuple[dict, list, DiscoveryResult, list[tuple[int, int]]]:
        """Time row matching + discovery + the apply-only join at one rung.

        Returns ``(record, pairs, discovery_result, joined_pairs)`` so
        callers can compare results across engines.  The ``apply_only``
        stage joins the rung's own columns with the *already discovered*
        cover — no matching, no re-discovery — which is exactly the serving
        path of a persisted :class:`~repro.model.artifact.TransformationModel`;
        tracking it separately is what lets the BENCH files show apply
        throughput independently of training cost.  The seed engine applies
        with the reference one-at-a-time loop, the packed engine with the
        trie-compiled batch applier (sharded at the rung's worker count), so
        the rung's ``identical`` flag also certifies the apply engines agree.
        """
        source_values, target_values = values or self.rung_values(
            num_rows, row_length=row_length
        )
        matcher = self.matcher_for(engine, num_workers)
        discovery = self.discovery_for(engine, num_workers)

        started = time.perf_counter()
        pairs = matcher.match_values(source_values, target_values)
        matching_seconds = time.perf_counter() - started

        started = time.perf_counter()
        result = discovery.discover(pairs)
        discovery_seconds = time.perf_counter() - started

        joiner = TransformationJoiner(
            result.transformations,
            num_workers=num_workers,
            use_batched_apply=(engine == "packed"),
        )
        started = time.perf_counter()
        join_result = joiner.join_values(source_values, target_values)
        apply_seconds = time.perf_counter() - started

        stages = {"row_matching": matching_seconds}
        stages.update(result.stats.stage_seconds)
        stages["apply_only"] = apply_seconds
        record = {
            "stages": stages,
            "total_s": matching_seconds + discovery_seconds + apply_seconds,
            "matching_s": matching_seconds,
            "discovery_s": discovery_seconds,
            "apply_s": apply_seconds,
            "num_pairs": len(pairs),
            "num_transformations": result.stats.unique_transformations,
            "cover_size": len(result.cover),
            "top_coverage": result.top_coverage,
            "joined_pairs": join_result.num_pairs,
            "num_workers": num_workers,
            # Degradation flag: true when a discovery time budget cut the
            # coverage walk short.  Benchmark runs must never be budgeted
            # (the timings would not be comparable), so validate_payload
            # rejects any record carrying it.
            "budget_exhausted": result.stats.budget_exhausted,
            # What the small-input fast path actually ran with (coverage
            # shards over candidate pairs) — the honest denominator for
            # any parallel-efficiency reading of this record.
            "effective_workers": tuned_num_workers(num_workers, len(pairs)),
        }
        return record, pairs, result, join_result.pairs

    # ------------------------------------------------------------------ #
    # Ladder sweeps
    # ------------------------------------------------------------------ #
    def run_matching(
        self,
        *,
        engines: Sequence[str] = MATCHING_ENGINES,
        max_seed_rows: int = 10000,
    ) -> dict:
        """Sweep the ladder timing row matching only.

        By default the sweep runs both n-gram engines *and* the setsim
        engine head-to-head on identical inputs; setsim rungs record the
        candidate-pruning ratio next to the wall time.
        """
        return self._run_ladder("matching", engines, max_seed_rows, discovery=False)

    def run_discovery(
        self,
        *,
        engines: Sequence[str] = ENGINES,
        max_seed_rows: int = 10000,
    ) -> dict:
        """Sweep the ladder timing row matching + discovery (the fig-4a path)."""
        return self._run_ladder("discovery", engines, max_seed_rows, discovery=True)

    def _run_ladder(
        self,
        benchmark: str,
        engines: Sequence[str],
        max_seed_rows: int,
        *,
        discovery: bool,
    ) -> dict:
        rungs = []
        for num_rows in self.ladder:
            values = self.rung_values(num_rows)
            engine_records: dict[str, dict] = {}
            outputs: dict[str, tuple] = {}
            for engine in engines:
                if engine == "seed" and max_seed_rows and num_rows > max_seed_rows:
                    # The seed engine is O(slow); cap how far up the ladder it
                    # climbs.  The packed engine still records the rung.
                    continue
                # The workers axis applies only where a stage shards:
                # setsim matching, and packed discovery's coverage.  The
                # seed engine and the n-gram matcher are serial, and a
                # worker label on them would time the serial run.
                sharded = engine == "setsim" or (discovery and engine == "packed")
                worker_counts = self.workers if sharded else (1,)
                for num_workers in worker_counts:
                    label = engine if num_workers == 1 else f"{engine}-w{num_workers}"
                    if discovery:
                        record, pairs, result, joined = self.discovery_rung(
                            num_rows, engine, num_workers=num_workers, values=values
                        )
                        outputs[label] = (pairs, result.cover, joined)
                    else:
                        record, pairs = self.matching_rung(
                            num_rows, engine, num_workers=num_workers, values=values
                        )
                        outputs[label] = (pairs, None)
                    engine_records[label] = record
            rung: dict = {"rows": num_rows, "engines": engine_records}
            if len(outputs) > 1:
                # One flag for the whole rung: within each candidate-
                # generation family (seed/packed n-grams vs setsim), every
                # engine/worker variant must produce the same pairs and the
                # same cover.  The families are *different regimes* — they
                # legitimately match different pair sets — so they are
                # compared on wall time and pruning, never on identity.
                rung["identical"] = all(
                    self._family_identical(outputs, family)
                    for family in {_engine_family(label) for label in outputs}
                )
            self._speedup_summary(rung, engine_records)
            parallel = self._parallel_summary(engine_records)
            if parallel:
                rung["parallel"] = parallel
            rungs.append(rung)
        config: dict = {
            "ladder": list(self.ladder),
            "row_length": self.row_length,
            "sample_size": self.sample_size,
            "seed": self.seed,
            "engines": list(engines),
            "workers": list(self.workers),
            "max_seed_rows": max_seed_rows,
        }
        if "setsim" in engines:
            config["setsim"] = {
                "similarity": SETSIM_BENCH_SIMILARITY,
                "threshold": SETSIM_BENCH_THRESHOLD,
                "tokenizer": SETSIM_BENCH_TOKENIZER,
                "qgram": SETSIM_BENCH_QGRAM,
            }
        return {
            "benchmark": benchmark,
            "harness": "repro.perf.BenchmarkRunner",
            "host": host_metadata(),
            "config": config,
            "rungs": rungs,
        }

    @staticmethod
    def _family_identical(outputs: dict[str, tuple], family: str) -> bool:
        """Whether every engine/worker variant of *family* agrees exactly."""
        labels = [label for label in outputs if _engine_family(label) == family]
        # The family's serial engine is the baseline when present (its label
        # carries no -w suffix); any member works otherwise.
        baseline_label = min(labels, key=len)
        baseline = outputs[baseline_label]
        return all(outputs[label] == baseline for label in labels)

    @staticmethod
    def _speedup_summary(rung: dict, engine_records: dict[str, dict]) -> None:
        """Attach ``speedup`` (with an explicit baseline label) and the
        per-stage speedup breakdown to *rung*.

        On rungs where the seed engine ran, ``speedup`` is the classic
        seed-vs-packed total ratio.  On seed-capped rungs (the top of the
        ladder) the packed serial run becomes the baseline and the fastest
        worker variant the comparison engine, so the field is never silently
        dropped; ``speedup_baseline``/``speedup_engine`` always say which
        pair was compared.  ``stage_speedup`` carries the same ratio per
        pipeline stage, which is what makes a coverage-stage optimisation
        (``applying_transformations``) visible in the BENCH JSON rather
        than buried in the total.
        """
        # The cross-regime headline: serial setsim vs serial packed wall
        # time on identical inputs (they solve the same candidate-generation
        # problem under different filters, so the ratio is the honest
        # engine-vs-engine comparison even though their match sets differ).
        packed = engine_records.get("packed")
        setsim = engine_records.get("setsim")
        if packed and setsim and setsim["total_s"] > 0:
            rung["setsim_vs_packed"] = round(
                packed["total_s"] / setsim["total_s"], 2
            )
        if "seed" in engine_records and "packed" in engine_records:
            baseline_label, engine_label = "seed", "packed"
        elif "packed" in engine_records:
            variants = [
                label
                for label, record in engine_records.items()
                if label.startswith("packed-w") and record["total_s"] > 0
            ]
            if not variants:
                return
            baseline_label = "packed"
            engine_label = min(
                variants, key=lambda label: engine_records[label]["total_s"]
            )
        else:
            return
        baseline = engine_records[baseline_label]
        engine = engine_records[engine_label]
        if engine["total_s"] <= 0:
            return
        rung["speedup"] = round(baseline["total_s"] / engine["total_s"], 2)
        rung["speedup_baseline"] = baseline_label
        rung["speedup_engine"] = engine_label
        stage_speedup = {
            stage: round(seconds / engine["stages"][stage], 2)
            for stage, seconds in baseline.get("stages", {}).items()
            if engine.get("stages", {}).get(stage, 0) > 0
        }
        if stage_speedup:
            rung["stage_speedup"] = stage_speedup

    @staticmethod
    def _parallel_summary(engine_records: dict[str, dict]) -> dict:
        """Speedup-vs-serial and parallel efficiency of every worker variant.

        Efficiency is ``speedup / effective_workers`` — 1.0 means perfect
        scaling over the workers that *actually ran*: the small-input fast
        path may resolve a ``packed-w8`` request to fewer workers (or to the
        serial inline path on single-core hosts), and dividing by the
        requested count would report that serial run as 8-worker
        inefficiency.  Both counts are recorded so the reduction is visible.
        Read efficiency against ``host.cpu_count``: with fewer cores than
        workers the ceiling is ``cpu_count / workers``, not 1.0.
        """
        summary = {}
        for engine in ("packed", "setsim"):
            serial = engine_records.get(engine)
            if serial is None or serial["total_s"] <= 0:
                continue
            for label, record in engine_records.items():
                num_workers = record.get("num_workers", 1)
                if num_workers <= 1 or not label.startswith(f"{engine}-w"):
                    continue
                if record["total_s"] <= 0:
                    continue
                effective = record.get("effective_workers", num_workers)
                speedup = serial["total_s"] / record["total_s"]
                summary[label] = {
                    "workers": num_workers,
                    "effective_workers": effective,
                    "speedup_vs_serial": round(speedup, 2),
                    "efficiency": round(speedup / max(effective, 1), 2),
                }
        return summary

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def write(self, name: str, payload: dict) -> Path:
        """Write *payload* to ``<output_dir>/BENCH_<name>.json`` and return the path."""
        self.output_dir.mkdir(parents=True, exist_ok=True)
        path = self.output_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return path


def validate_payload(payload: dict) -> list[str]:
    """Sanity-check a benchmark payload; returns a list of problems (empty = ok).

    Used by the ``--smoke`` CLI mode (and CI) to assert that stage timings
    were recorded and that the run produced non-empty outputs.  Serving
    payloads (``"benchmark": "serve"``, written by
    :mod:`repro.perf.serve_bench`) have their own shape and checks and are
    dispatched to :func:`~repro.perf.serve_bench.validate_serve_payload`.
    """
    if payload.get("benchmark") == "serve":
        from repro.perf.serve_bench import validate_serve_payload

        return validate_serve_payload(payload)
    problems: list[str] = []
    rungs = payload.get("rungs") or []
    is_discovery = payload.get("benchmark") == "discovery"
    host = payload.get("host") or {}
    if host and "kernels" not in host:
        # Without the tier on record a payload cannot be compared to
        # anything — a numpy-tier number read against a python-tier baseline
        # (or vice versa) is the classic apples-to-oranges perf mistake.
        problems.append("host block does not record the kernel tier")
    if not rungs:
        problems.append("no rungs recorded")
    for rung in rungs:
        rows = rung.get("rows")
        engines = rung.get("engines") or {}
        if not engines:
            problems.append(f"rung {rows}: no engines recorded")
        for engine, record in engines.items():
            label = f"rung {rows}/{engine}"
            stages = record.get("stages") or {}
            if not stages:
                problems.append(f"{label}: no stage timings recorded")
            if any(seconds < 0 for seconds in stages.values()):
                problems.append(f"{label}: negative stage timing")
            if record.get("total_s", 0) <= 0:
                problems.append(f"{label}: total_s missing or non-positive")
            if record.get("num_pairs", 0) <= 0:
                problems.append(f"{label}: no candidate pairs produced")
            if "num_transformations" in record and record["num_transformations"] <= 0:
                problems.append(f"{label}: no transformations generated")
            if engine.startswith("setsim"):
                # setsim records must carry the pruning statistics — they
                # are the benchmark's headline — and the statistics must be
                # internally consistent (a candidate count outside
                # [matches, all_pairs] means a broken filter or counter).
                all_pairs = record.get("all_pairs", 0)
                candidates = record.get("candidates_post_filter")
                if all_pairs <= 0:
                    problems.append(f"{label}: no all_pairs count recorded")
                if candidates is None:
                    problems.append(f"{label}: no post-filter candidate count")
                elif not record.get("num_pairs", 0) <= candidates <= all_pairs:
                    problems.append(
                        f"{label}: candidate count {candidates} outside "
                        f"[matches, all_pairs]"
                    )
                ratio = record.get("pruning_ratio")
                if ratio is None or not 0.0 <= ratio <= 1.0:
                    problems.append(
                        f"{label}: pruning_ratio missing or outside [0, 1]"
                    )
            if is_discovery and stages and "apply_only" not in stages:
                # Discovery payloads must track apply throughput separately
                # from training — a missing stage means the apply-only path
                # silently fell out of the harness.
                problems.append(f"{label}: no apply_only stage recorded")
            if is_discovery and record.get("joined_pairs", 0) <= 0:
                problems.append(f"{label}: apply-only join produced no pairs")
            if record.get("budget_exhausted"):
                # A budget-truncated run timed a prefix of the work — its
                # numbers are not comparable to complete runs and must not
                # land in a BENCH file.
                problems.append(f"{label}: run was cut by a discovery time budget")
        if len(engines) > 1 and "identical" not in rung:
            problems.append(
                f"rung {rows}: multiple engines recorded but no identical flag"
            )
        if rung.get("identical") is False:
            problems.append(f"rung {rows}: engines disagree on results")
    return problems


def compare_to_baseline(
    payload: dict,
    baseline_payload: dict,
    *,
    engine: str = "packed",
    stage: str = "applying_transformations",
    factor: float = 2.0,
) -> list[str]:
    """Coarse hot-path regression guard against a checked-in BENCH payload.

    For every rung present in both payloads, fails when the *engine*'s
    *stage* timing is more than *factor* times the checked-in value.  The
    factor is deliberately loose — CI machines differ from the machine that
    produced the baseline and wall clocks are noisy — so only gross
    regressions (an accidentally disabled prefilter, a quadratic slip) trip
    it.  Rungs or stages missing from either payload are skipped: the guard
    protects timings that exist, it does not enforce payload shape
    (:func:`validate_payload` does that).
    """
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    problems: list[str] = []
    current_tier = (payload.get("host") or {}).get("kernels")
    baseline_tier = (baseline_payload.get("host") or {}).get("kernels")
    if current_tier and baseline_tier and current_tier != baseline_tier:
        # Refuse mixed-tier comparisons outright: a python-tier run against
        # a numpy-tier baseline (or vice versa) measures the tier gap, not a
        # regression, and any factor threshold applied to it is noise.
        return [
            "kernel tiers differ between payload "
            f"({current_tier}) and baseline ({baseline_tier}); "
            "timings are not comparable"
        ]
    baseline_rungs = {
        rung.get("rows"): rung for rung in baseline_payload.get("rungs") or []
    }
    for rung in payload.get("rungs") or []:
        rows = rung.get("rows")
        baseline_rung = baseline_rungs.get(rows)
        if baseline_rung is None:
            continue
        current = (
            (rung.get("engines") or {}).get(engine, {}).get("stages", {}).get(stage)
        )
        reference = (
            (baseline_rung.get("engines") or {})
            .get(engine, {})
            .get("stages", {})
            .get(stage)
        )
        if not current or not reference:
            continue
        if current > factor * reference:
            problems.append(
                f"rung {rows}/{engine}: stage {stage} took {current:.2f}s, "
                f"more than {factor}x the checked-in {reference:.2f}s"
            )
    return problems
