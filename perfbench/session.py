"""One benchmark run of a workload: set-up, then its measured phase.

The workload's primary phase -- fit, apply or serve -- is measured for
``--seconds``.  A traced run adds the other phases at a small fixed size,
so the layer-by-layer composition has a fitted model, joined pairs and
server counters on every workload.  The program is driven only through
its public API (``JoinPipeline``, ``TransformationModel``, ``read_csv``)
and its CLI (``repro serve``).  Correctness is checked in the same run:
fits must repeat identically, joined pairs must agree with the
``Transformation.apply`` oracle, and served pairs must equal offline
``JoinPipeline.apply`` pairs.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import random
import resource
import shutil
import statistics
import string
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.core.config import DiscoveryConfig
from repro.core.transformation import Transformation
from repro.datasets.synthetic import SyntheticConfig, generate_table_pair
from repro.join.pipeline import JoinPipeline
from repro.matching.row_matcher import MatchingConfig, NGramRowMatcher
from repro.model.artifact import TransformationModel
from repro.table.io import read_csv, write_csv
from repro.table.table import Table

from perfbench import serveload
from perfbench.workloads import LATENCY_LIMIT_MS, MIN_JOIN_F1, Spec

ROOT = Path(__file__).resolve().parent.parent
COLUMN = "value"
MODEL_NAME = "m"
#: Seed of the ground-truth transformations, shared by every run.
TRUTH_SEED = 0
#: Alphabet of the source strings (alphanumeric, as in the paper's Synth-N).
ALPHABET = string.ascii_lowercase + string.digits


# ---------------------------------------------------------------------- #
# Program configuration and inputs
# ---------------------------------------------------------------------- #
def matching_config(spec: Spec) -> MatchingConfig:
    return MatchingConfig(engine="ngram", num_workers=1)


def discovery_config(spec: Spec) -> DiscoveryConfig:
    return DiscoveryConfig(num_workers=1, sample_size=spec.sample_size)


def make_pipeline(spec: Spec) -> JoinPipeline:
    return JoinPipeline(
        matcher=NGramRowMatcher(matching_config(spec)),
        discovery_config=discovery_config(spec),
    )


def ground_truth(spec: Spec) -> list[Transformation]:
    """The workload's ground-truth transformations, the same for every seed."""
    config = SyntheticConfig(
        num_rows=1,
        min_length=spec.min_length,
        max_length=spec.max_length,
        num_transformations=spec.transformations,
        seed=TRUTH_SEED,
    )
    return generate_table_pair(config)[1]


def generate(spec: Spec, seed: int) -> tuple[Table, Table]:
    """The workload's Synth-N table pair; golden pairs are ``(i, i)``.

    The seed draws the source strings, the order of their lengths and which
    ground-truth transformation makes each target row.  The lengths are
    spread evenly over the workload's range and every transformation makes
    the same number of rows, so the work a run does depends on the
    workload, not on how long or how hard its seed's rows happen to be.
    """
    rng = random.Random(seed)
    rows = spec.rows
    span = spec.max_length - spec.min_length + 1
    lengths = [spec.min_length + row * span // rows for row in range(rows)]
    rules = [row % spec.transformations for row in range(rows)]
    rng.shuffle(lengths)
    rng.shuffle(rules)
    truth = ground_truth(spec)
    sources = ["".join(rng.choices(ALPHABET, k=length)) for length in lengths]
    targets = [truth[rule].apply(value) for rule, value in zip(rules, sources)]
    ids = [str(row) for row in range(rows)]
    return (
        Table({"id": ids, COLUMN: sources}, name=f"{spec.name}_source"),
        Table({"id": ids, COLUMN: targets}, name=f"{spec.name}_target"),
    )


def fit(spec: Spec, source: Table, target: Table) -> TransformationModel:
    return make_pipeline(spec).fit(
        source, target, source_column=COLUMN, target_column=COLUMN
    )


def model_signature(model: TransformationModel) -> tuple:
    return (
        tuple(map(repr, model.transformations)),
        tuple(model.coverage_counts),
        model.num_candidate_pairs,
    )


def prf(pairs, gold: set) -> tuple[float, float, float]:
    """Precision, recall and F1 of *pairs* against *gold*."""
    found = set(pairs)
    hits = len(found & gold)
    precision = hits / len(found) if found else 0.0
    recall = hits / len(gold) if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if hits else 0.0
    return precision, recall, f1


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------- #
# Failure accounting
# ---------------------------------------------------------------------- #
@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)  # failed whole-run checks

    def op(self, failure: str | None = None) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(failure)

    @property
    def correct(self) -> bool:
        return not self.failures and not self.checks


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #
@dataclass
class Setup:
    """What one set-up produced; the first one of a run is used."""

    directory: Path
    source: Table
    target: Table
    seconds: float = 0.0
    model: TransformationModel | None = None
    server: serveload.ServerProcess | None = None

    @property
    def model_dir(self) -> Path:
        return self.directory / "models"

    @property
    def model_path(self) -> Path:
        return self.model_dir / f"{MODEL_NAME}.json"

    def fit_input(self, spec: Spec) -> tuple[Table, Table]:
        return self.source.head(spec.fit_rows), self.target.head(spec.fit_rows)

    def apply_input(self, spec: Spec) -> tuple[Table, Table]:
        """The pair the apply phase joins: all rows on ``apply``, else the fit pair."""
        if spec.primary == "apply":
            return self.source, self.target
        return self.fit_input(spec)

    def write_apply_files(self, spec: Spec, model: TransformationModel) -> None:
        self.model = model
        self.model_dir.mkdir(parents=True, exist_ok=True)
        model.save(self.model_path)
        source, target = self.apply_input(spec)
        write_csv(source, self.directory / "source.csv")
        write_csv(target, self.directory / "target.csv")

    def start_server(self) -> serveload.ServerProcess:
        self.server = serveload.ServerProcess(
            ROOT, self.model_dir, self.directory / "server.log"
        )
        self.server.start()
        return self.server

    def discard(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.directory, ignore_errors=True)


def set_up(spec: Spec, seed: int, directory: Path) -> Setup:
    """Generate inputs; fit, write files and start the server where the
    workload does so before its measured phase."""
    started = perf_counter()
    directory.mkdir(parents=True, exist_ok=True)
    source, target = generate(spec, seed)
    setup = Setup(directory, source, target)
    try:
        if spec.primary == "fit":
            # Warm lazy imports and the allocator before timing.
            fit(spec, source.head(spec.warm_rows), target.head(spec.warm_rows))
        else:
            setup.write_apply_files(spec, fit(spec, *setup.fit_input(spec)))
            if spec.primary == "serve":
                setup.start_server()
    except BaseException:
        setup.discard()
        raise
    setup.seconds = perf_counter() - started
    return setup


# ---------------------------------------------------------------------- #
# Repetitions
# ---------------------------------------------------------------------- #
@dataclass
class Rep:
    """One repetition: wall time, what the body returned or the error it
    raised, and peak RSS of the process that ran it and its children."""

    seconds: float
    result: object = None
    error: str | None = None
    rss_mb: float = 0.0


def _run_rep(body, rep: int) -> Rep:
    gc.collect()
    started = perf_counter()
    try:
        result = body(rep)
    except Exception as error:  # noqa: BLE001 - a failed repetition is counted
        return Rep(perf_counter() - started, error=f"{type(error).__name__}: {error}")
    return Rep(perf_counter() - started, result, rss_mb=peak_rss_mb())


def _run_rep_forked(body, rep: int) -> Rep:
    """One repetition in a forked copy of this process.

    Every repetition then starts from the same warmed-up state, so drift
    within a process (the sharded fit slowed by 40% over three in-process
    repeats) does not accumulate, and each repetition's peak RSS is its own.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=lambda: sender.send(_run_rep(body, rep)))
    process.start()
    sender.close()
    try:
        record = receiver.recv()
    except EOFError:
        record = None
    finally:
        receiver.close()
        process.join()
    return record or Rep(0.0, error=f"repetition exited with {process.exitcode}")


def repeat(body, seconds: float, *, isolate: bool = False) -> list[Rep]:
    """Run *body* once, then again until *seconds* have passed.

    Every repetition's raw record is kept.  With *isolate*, each one runs in
    a forked child -- unless this process has other threads, which a fork
    could catch holding a lock; then the repetitions run in-process.
    """
    forked = isolate and threading.active_count() == 1
    run_one = _run_rep_forked if forked else _run_rep
    reps: list[Rep] = []
    started = perf_counter()
    while not reps or perf_counter() - started < seconds:
        reps.append(run_one(body, len(reps)))
    return reps


# ---------------------------------------------------------------------- #
# Fit and apply phases
# ---------------------------------------------------------------------- #
def candidate_keys(model: TransformationModel) -> list[tuple[int, int]]:
    """The (source_row, target_row) candidate pairs a fitted model saw."""
    return [(pair.source_row, pair.target_row) for pair in model.discovery.pairs]


def fit_body(spec: Spec, setup: Setup):
    """One fit of the fit input; the first repetition also returns its
    model (as text) and its candidate pairs."""
    source, target = setup.fit_input(spec)

    def body(rep: int):
        model = fit(spec, source, target)
        return (
            model_signature(model),
            bool(model.stats.get("budget_exhausted")),
            (model.dumps(), candidate_keys(model)) if rep == 0 else None,
        )

    return body


def account_fits(reps: list[Rep], ledger: Ledger) -> None:
    """Repeated fits must all succeed and yield the first one's model."""
    first = reps[0].result
    for index, rep in enumerate(reps):
        if rep.error:
            ledger.op(f"fit {index}: {rep.error}")
        elif rep.result[1]:
            ledger.op(f"fit {index}: budget_exhausted")
        elif first is None or rep.result[0] != first[0]:
            ledger.op(f"fit {index}: model differs from the first repetition")
        else:
            ledger.op()


def apply_body(directory: Path):
    """What ``repro apply`` does short of writing its output."""
    source = read_csv(directory / "source.csv")
    target = read_csv(directory / "target.csv")
    model = TransformationModel.load(directory / "models" / f"{MODEL_NAME}.json")
    return JoinPipeline(num_workers=1).apply(
        model, source, target, source_column=COLUMN, target_column=COLUMN
    )


def apply_rep(directory: Path):
    def body(rep: int):
        applied = apply_body(directory)
        return applied.join.pairs, applied.applied_transformations

    return body


def oracle_mismatches(spec: Spec, seed: int, pairs, transformations,
                      source: Table, target: Table) -> list[int]:
    """Sampled source rows whose joined target rows differ from the oracle.

    The oracle applies each applied transformation with
    ``Transformation.apply`` and looks the output up among the target values.
    """
    source_values = source[COLUMN]
    target_rows: dict[str, list[int]] = {}
    for row, value in enumerate(target[COLUMN]):
        target_rows.setdefault(value, []).append(row)
    joined: dict[int, set[int]] = {}
    for source_row, target_row in pairs:
        joined.setdefault(source_row, set()).add(target_row)
    rows = random.Random(seed).sample(
        range(len(source_values)), min(spec.oracle_rows, len(source_values))
    )
    bad = []
    for row in rows:
        expected: set[int] = set()
        for transformation in transformations:
            output = transformation.apply(source_values[row])
            if output is not None:
                expected.update(target_rows.get(output, ()))
        if expected != joined.get(row, set()):
            bad.append(row)
    return bad


def account_applies(spec: Spec, seed: int, setup: Setup, reps: list[Rep], ledger: Ledger) -> list:
    """Every apply must join the first one's pairs, which the oracle checks."""
    first = reps[0].result
    for index, rep in enumerate(reps):
        if rep.error:
            ledger.op(f"apply {index}: {rep.error}")
        elif first is None or rep.result[0] != first[0]:
            ledger.op(f"apply {index}: pairs differ from the first repetition")
        else:
            ledger.op()
    if first is None:
        raise RuntimeError(f"the first apply failed: {reps[0].error}")
    pairs, transformations = first
    source, target = setup.apply_input(spec)
    bad = oracle_mismatches(spec, seed, pairs, transformations, source, target)
    if bad:
        ledger.checks.append(
            f"apply: {len(bad)} sampled rows disagree with Transformation.apply, e.g. row {bad[0]}"
        )
    return pairs


# ---------------------------------------------------------------------- #
# Serve phase
# ---------------------------------------------------------------------- #
def serve_traffic(spec: Spec, source: Table, target: Table) -> tuple[serveload.Traffic, list]:
    """Request bodies, and for each its (source batch start, target window start)."""
    shape = spec.serve
    source_values = list(source[COLUMN])
    target_values = list(target[COLUMN])
    batch, width = shape.batch_rows, shape.target_rows
    num_batches = max(1, width // batch)
    layout = [(k * batch, 0) for k in range(num_batches)]
    layout += [
        ((c % num_batches) * batch, (c + 1) * shape.stride) for c in range(shape.pool)
    ]

    def body(start: int, window: int) -> bytes:
        return json.dumps({
            "source": source_values[start:start + batch],
            "target": target_values[window:window + width],
        }).encode("utf-8")

    bodies = [body(start, window) for start, window in layout]
    return serveload.Traffic(shape, bodies[:num_batches], bodies[num_batches:]), layout


def golden_pairs(layout_entry: tuple[int, int], shape) -> set[tuple[int, int]]:
    start, window = layout_entry
    return {
        (row - start, row - window)
        for row in range(start, start + shape.batch_rows)
        if window <= row < window + shape.target_rows
    }


@dataclass
class ServeOutcome:
    metrics: dict
    stats: dict
    rss_mb: float
    traffic: serveload.Traffic


class ServeLoad:
    """The serve phase, sent in rounds spread over its budget.

    Each round is an open loop at the fixed rate followed by a closed loop;
    the rotation of request bodies continues from round to round.
    """

    def __init__(self, spec: Spec, setup: Setup, server: serveload.ServerProcess) -> None:
        self.shape = spec.serve
        self.server = server
        self.traffic, self.layout = serve_traffic(spec, setup.source, setup.target)
        self.path = f"/join/{MODEL_NAME}"
        self.open_rounds: list[serveload.Phase] = []
        self.closed_rounds: list[serveload.Phase] = []
        self.next_index = 0
        serveload.warm_up(server, self.traffic, self.path)

    def run(self, seconds: float, between=None) -> None:
        """All rounds, calling *between* after each round but the last."""
        shape = self.shape
        open_requests = round(shape.rate_rps * seconds * shape.open_share / shape.rounds)
        closed_s = seconds * (1.0 - shape.open_share) / shape.rounds
        for index in range(shape.rounds):
            self.round(max(1, open_requests), closed_s)
            if between is not None and index < shape.rounds - 1:
                between()

    def round(self, open_requests: int, closed_s: float) -> None:
        # The client's own collector must not stall the load generator.
        gc.collect()
        gc.disable()
        try:
            opened = serveload.open_loop(
                self.server, self.traffic, self.path, self.next_index, open_requests
            )
            self.next_index += open_requests
            closed = serveload.closed_loop(
                self.server, self.traffic, self.path, self.next_index, closed_s
            )
            self.next_index += len(closed.requests)
        finally:
            gc.enable()
        self.open_rounds.append(opened)
        self.closed_rounds.append(closed)

    def finish(self, model: TransformationModel, ledger: Ledger) -> ServeOutcome:
        """Read the server's counters, stop it, then verify the responses."""
        try:
            stats = self.server.stats()
            rss_mb = self.server.vm_hwm_mb()
        finally:
            self.server.stop()
        traffic = self.traffic
        # Offline reference pairs, computed after the load so they do not
        # compete with the server for the cores.
        expected: dict[int, list[tuple[int, int]]] = {}
        pipeline = JoinPipeline(num_workers=1)
        opened = [r for phase in self.open_rounds for r in phase.requests]
        closed = [r for phase in self.closed_rounds for r in phase.requests]
        everything = opened + closed
        for request in everything:
            if not request.verified or request.status != 200:
                continue
            if request.body_id not in expected:
                payload = json.loads(traffic.bodies[request.body_id])
                expected[request.body_id] = pipeline.apply(
                    model,
                    Table({COLUMN: payload["source"]}),
                    Table({COLUMN: payload["target"]}),
                    source_column=COLUMN,
                    target_column=COLUMN,
                ).join.pairs
            got = [tuple(pair) for pair in json.loads(request.raw)["pairs"]]
            request.mismatch = got != expected[request.body_id]

        for request in everything:
            if request.status != 200:
                ledger.op(f"serve: status {request.status}")
            elif request.mismatch:
                ledger.op("serve: response differs from offline JoinPipeline.apply")
            else:
                ledger.op()

        def ok(request) -> bool:
            return (
                request.status == 200
                and not request.mismatch
                and (request.done - request.due) * 1000.0 <= LATENCY_LIMIT_MS
            )

        hits = found = gold_total = 0
        for request in opened:
            if request.verified and request.status == 200 and not request.mismatch:
                gold = golden_pairs(self.layout[request.body_id], self.shape)
                pairs = set(expected[request.body_id])
                hits += len(pairs & gold)
                found += len(pairs)
                gold_total += len(gold)
        precision = hits / found if found else 0.0
        recall = hits / gold_total if gold_total else 0.0
        latencies = [r.done - r.due for r in opened]
        summary = {
            kind: {
                f"p{q}": serveload.percentile(values, q) * 1000.0
                for q in (50, 90, 99, 99.9)
            }
            for kind, values in (
                ("all", latencies),
                ("hot", [r.done - r.due for r in opened if not traffic.is_cold(r.body_id)]),
                ("cold", [r.done - r.due for r in opened if traffic.is_cold(r.body_id)]),
                ("lag", [r.sent - r.due for r in opened]),
            )
            if values
        }
        round_rps = [
            sum(1 for r in phase.requests if r.status == 200 and not r.mismatch)
            / phase.seconds
            for phase in self.closed_rounds
        ]
        metrics = {
            "p50_ms": serveload.percentile(latencies, 50) * 1000.0,
            "p99_ms": serveload.percentile(latencies, 99) * 1000.0,
            "ok_ratio": sum(map(ok, everything)) / len(everything),
            "capacity_rps": statistics.median(round_rps),
            "round_rps": round_rps,
            "f1": 2 * precision * recall / (precision + recall) if hits else 0.0,
            "open_requests": len(opened),
            "closed_requests": len(closed),
            "generator_lag_ms": statistics.fmean(r.sent - r.due for r in opened) * 1000.0,
            "verified": sum(1 for r in everything if r.verified),
            "latency_ms": summary,
        }
        return ServeOutcome(metrics, stats, rss_mb, traffic)


# ---------------------------------------------------------------------- #
# The run
# ---------------------------------------------------------------------- #
@dataclass
class RunState:
    """Everything a run measured, kept for the traced composition."""

    spec: Spec
    setup: Setup
    model: TransformationModel
    candidate_keys: list[tuple[int, int]] | None
    fit_times: list[float]
    apply_times: list[float]
    apply_pairs: list
    serve: ServeOutcome | None
    setup_times: list[float]
    ledger: Ledger
    metrics: dict


def run_session(spec: Spec, seed: int, seconds: float, workdir: Path, *,
                every_phase: bool = False) -> RunState:
    """Set up, then measure the primary phase for *seconds*; with
    *every_phase*, run the other phases briefly as well.

    The primary phase runs in ``spec.setups`` parts, with an extra set-up
    between every two, so ``setup_s`` -- the median set-up -- samples the
    whole run rather than one stretch of it.  Fits and applies are timed by
    their fastest repetition: interference from other work on the host only
    ever adds time, so the fastest of many short repetitions is the
    steadiest estimate of the program's own cost.  Every repetition's raw
    time is kept in the details.
    """
    ledger = Ledger()
    primary = spec.primary
    setup = set_up(spec, seed, workdir / "setup0")
    setup_times = [setup.seconds]
    parts = spec.setups

    def extra_setup() -> None:
        """A set-up that only times set-up."""
        extra = set_up(spec, seed, workdir / f"setup{len(setup_times)}")
        extra.discard()
        setup_times.append(extra.seconds)

    def measured(body, *, isolate: bool) -> list[Rep]:
        reps: list[Rep] = []
        for part in range(parts):
            reps += repeat(body, seconds / parts, isolate=isolate)
            if part < parts - 1:
                extra_setup()
        return reps

    try:
        model = setup.model
        keys = None if model is None else candidate_keys(model)
        fit_reps: list[Rep] = []
        if primary == "fit":
            fit_reps = measured(fit_body(spec, setup), isolate=True)
            shipped = fit_reps[0].result
            if shipped is None:
                raise RuntimeError(f"the first fit failed: {fit_reps[0].error}")
            model, keys = TransformationModel.loads(shipped[2][0]), shipped[2][1]
            setup.write_apply_files(spec, model)
        if primary == "apply":
            apply_reps = measured(apply_rep(setup.directory), isolate=False)
        else:
            # The fit workloads apply their model once, for join_f1 and the oracle.
            apply_reps = repeat(apply_rep(setup.directory), spec.apply_s if every_phase else 0.0)
        rss = [peak_rss_mb()] + [rep.rss_mb for rep in fit_reps + apply_reps]
        serve = None
        if primary == "serve" or every_phase:
            load = ServeLoad(spec, setup, setup.server or setup.start_server())
            if primary == "serve":
                load.run(seconds, between=extra_setup)
            else:
                load.run(spec.serve_s)
            serve = load.finish(model, ledger)
    except BaseException:
        setup.discard()
        raise

    if fit_reps:
        account_fits(fit_reps, ledger)
    apply_pairs = account_applies(spec, seed, setup, apply_reps, ledger)
    fit_times = [rep.seconds for rep in fit_reps]
    apply_times = [rep.seconds for rep in apply_reps]
    source, _ = setup.apply_input(spec)
    gold = {(row, row) for row in range(source.num_rows)}
    if primary == "serve":
        metrics = {
            "op_ms": serve.metrics["p50_ms"],
            "rows_per_s": serve.metrics["capacity_rps"] * spec.serve.batch_rows,
            "ok_ratio": serve.metrics["ok_ratio"],
            "join_f1": serve.metrics["f1"],
            "peak_rss_mb": serve.rss_mb,
        }
    else:
        op_s = min(fit_times if primary == "fit" else apply_times)
        metrics = {
            "op_ms": op_s * 1000.0,
            "rows_per_s": source.num_rows / op_s,
            "ok_ratio": 1.0 - len(ledger.failures) / max(1, ledger.attempted),
            "join_f1": prf(apply_pairs, gold)[2],
            "peak_rss_mb": max(rss),
        }
    metrics["setup_s"] = statistics.median(setup_times)
    if metrics["join_f1"] < MIN_JOIN_F1:
        ledger.checks.append(f"join_f1 {metrics['join_f1']:.4f} below {MIN_JOIN_F1}")
    return RunState(
        spec=spec,
        setup=setup,
        model=model,
        candidate_keys=keys,
        fit_times=fit_times,
        apply_times=apply_times,
        apply_pairs=apply_pairs,
        serve=serve,
        setup_times=setup_times,
        ledger=ledger,
        metrics=metrics,
    )
