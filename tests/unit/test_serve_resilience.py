"""Unit tests for the serving resilience layer.

Covers the pieces individually — the circuit-breaker state machine
(including the half-open single probe under real thread concurrency and
the mtime fast-path), the admission controller's bounds and
deadline-while-queued behaviour, the micro-batcher's per-follower
deadlines, the engine's failure remapping, cooperative deadlines on the
apply path, the serve-scoped fault grammar, request-body parsing
(``deadline_ms``, the 413 cap), and the bounded latency window.  The
end-to-end behaviours (injected hangs → 504, saturation → 429, breaker
transitions over HTTP) live in ``tests/integration/test_serve_chaos.py``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.datasets.synthetic import SyntheticConfig, generate_table_pair
from repro.join.pipeline import JoinPipeline
from repro.parallel.errors import DeadlineExceededError as CoreDeadlineExceededError
from repro.parallel.errors import ShardError, ShardTimeoutError
import repro.serve.server as server_module
from repro.serve import JoinServer, LatencyStats
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.engine import MicroBatcher, ServeEngine
from repro.serve.registry import ModelRegistry
from repro.serve.errors import (
    BadRequestError,
    CircuitOpenError,
    DeadlineExceededError,
    ModelLoadError,
    ModelNotFoundError,
    OverloadedError,
    PayloadTooLargeError,
    ServeError,
)
from repro.testing.faults import (
    SERVE_SITES,
    FaultInjected,
    FaultSpec,
    maybe_inject_serve,
    parse_fault_spec,
)


@pytest.fixture(scope="module")
def fitted_model():
    pair, _ = generate_table_pair(SyntheticConfig(num_rows=120, seed=11))
    model = JoinPipeline(min_support=0.05).fit(
        pair.source, pair.target, source_column="value", target_column="value"
    )
    return pair, model


def _state(breaker: CircuitBreaker) -> str:
    return breaker.snapshot()["state"]


# --------------------------------------------------------------------- #
# Circuit breaker state machine
# --------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("m", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("m", cooldown_s=-1.0)

    @pytest.mark.parametrize(
        ("settings", "message"),
        [
            pytest.param(
                {"breaker_threshold": 0},
                "failure_threshold must be >= 1, got 0",
                id="threshold",
            ),
            pytest.param(
                {"breaker_cooldown_s": -1.0},
                "cooldown_s must be >= 0, got -1.0",
                id="cooldown",
            ),
        ],
    )
    def test_engine_checks_breaker_settings_when_built(
        self, tmp_path, settings, message
    ):
        # The engine builds a model's breaker on its first countable
        # failure; unchecked, a bad setting would surface only there, as a
        # 500 ValueError in place of that failure's own typed answer.
        with pytest.raises(ValueError, match=re.escape(message)):
            ServeEngine(ModelRegistry(tmp_path), **settings)

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("m", failure_threshold=3, cooldown_s=60.0)
        for _ in range(2):
            breaker.acquire()
            breaker.record_failure()
        assert _state(breaker) == "closed"
        breaker.acquire()
        breaker.record_failure()
        assert _state(breaker) == "open"
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.acquire()
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after_s > 0

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker("m", failure_threshold=2, cooldown_s=60.0)
        breaker.acquire()
        breaker.record_failure()
        breaker.acquire()
        breaker.record_success()
        breaker.acquire()
        breaker.record_failure()
        # The earlier failure was cleared: one more is still below threshold.
        assert _state(breaker) == "closed"

    def _trip(self, breaker: CircuitBreaker) -> None:
        while _state(breaker) == "closed":
            breaker.acquire()
            breaker.record_failure()

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker("m", failure_threshold=1, cooldown_s=0.05)
        self._trip(breaker)
        time.sleep(0.06)
        breaker.acquire()  # admitted as the probe
        assert _state(breaker) == "half_open"
        breaker.record_success()
        assert _state(breaker) == "closed"
        breaker.acquire()  # healthy again

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker("m", failure_threshold=1, cooldown_s=0.05)
        self._trip(breaker)
        time.sleep(0.06)
        breaker.acquire()
        breaker.record_failure()
        assert _state(breaker) == "open"
        # The cool-down restarted: immediately rejected again.
        with pytest.raises(CircuitOpenError):
            breaker.acquire()

    def test_half_open_abort_frees_the_probe_slot(self):
        breaker = CircuitBreaker("m", failure_threshold=1, cooldown_s=0.05)
        self._trip(breaker)
        time.sleep(0.06)
        breaker.acquire()
        breaker.record_abort()
        assert _state(breaker) == "open"
        # A later request can still become the probe once the (restarted)
        # cool-down elapses — the slot did not stay wedged.
        time.sleep(0.06)
        breaker.acquire()
        assert _state(breaker) == "half_open"

    def test_half_open_admits_exactly_one_probe_under_concurrency(self):
        breaker = CircuitBreaker("m", failure_threshold=1, cooldown_s=0.05)
        self._trip(breaker)
        time.sleep(0.06)
        workers = 8
        barrier = threading.Barrier(workers)
        admitted = []
        rejected = []
        lock = threading.Lock()

        def attempt() -> None:
            barrier.wait()
            try:
                breaker.acquire()
            except CircuitOpenError:
                with lock:
                    rejected.append(1)
            else:
                with lock:
                    admitted.append(1)

        threads = [threading.Thread(target=attempt) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert len(admitted) == 1
        assert len(rejected) == workers - 1

    def test_changed_mtime_admits_a_probe_before_the_cooldown(self):
        file_key = {"value": (1, 10, 100)}
        breaker = CircuitBreaker(
            "m",
            failure_threshold=1,
            cooldown_s=3600.0,
            file_key_fn=lambda: file_key["value"],
        )
        self._trip(breaker)
        with pytest.raises(CircuitOpenError):
            breaker.acquire()
        file_key["value"] = (1, 10, 200)  # the operator shipped a fixed artifact
        breaker.acquire()  # probe admitted immediately, no cool-down wait
        assert _state(breaker) == "half_open"
        breaker.record_success()
        assert _state(breaker) == "closed"

    def test_replaced_file_with_the_same_mtime_admits_a_probe(self):
        file_key = {"value": (1, 10, 100)}
        breaker = CircuitBreaker(
            "m",
            failure_threshold=1,
            cooldown_s=3600.0,
            file_key_fn=lambda: file_key["value"],
        )
        self._trip(breaker)
        with pytest.raises(CircuitOpenError):
            breaker.acquire()
        file_key["value"] = (2, 10, 100)  # moved into place, old mtime kept
        breaker.acquire()
        assert _state(breaker) == "half_open"

    def test_missing_file_does_not_admit_a_probe(self):
        file_key = {"value": (1, 10, 100)}
        breaker = CircuitBreaker(
            "m",
            failure_threshold=1,
            cooldown_s=3600.0,
            file_key_fn=lambda: file_key["value"],
        )
        self._trip(breaker)
        file_key["value"] = None  # deleted mid-deploy: nothing new to probe
        with pytest.raises(CircuitOpenError):
            breaker.acquire()
        assert _state(breaker) == "open"

    def test_snapshot_counters(self):
        breaker = CircuitBreaker("m", failure_threshold=1, cooldown_s=3600.0)
        self._trip(breaker)
        with pytest.raises(CircuitOpenError):
            breaker.acquire()
        snapshot = breaker.snapshot()
        assert snapshot["state"] == "open"
        assert snapshot["times_opened"] == 1
        assert snapshot["rejected"] == 1
        assert snapshot["failure_threshold"] == 1


# --------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------- #
class TestAdmissionController:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue=-1)

    def test_admits_within_bounds_and_tracks_gauges(self):
        admission = AdmissionController(max_inflight=2, max_queue=0)
        admission.acquire()
        admission.acquire()
        assert admission.saturated
        admission.release()
        admission.release()
        snapshot = admission.snapshot()
        assert snapshot["admitted"] == 2
        assert snapshot["in_flight"] == 0
        assert snapshot["peak_in_flight"] == 2

    def test_sheds_beyond_both_bounds(self):
        admission = AdmissionController(max_inflight=1, max_queue=0)
        admission.acquire()
        with pytest.raises(OverloadedError) as excinfo:
            admission.acquire()
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after_s > 0
        admission.release()
        assert admission.snapshot()["shed"] == 1

    def test_queued_request_runs_after_release(self):
        admission = AdmissionController(max_inflight=1, max_queue=1)
        admission.acquire()
        acquired = threading.Event()

        def waiter() -> None:
            admission.acquire()
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set()  # parked in the queue
        admission.release()
        assert acquired.wait(timeout=5)
        admission.release()
        thread.join(timeout=5)

    def test_deadline_expires_while_queued(self):
        admission = AdmissionController(max_inflight=1, max_queue=1)
        admission.acquire()
        errors: list[BaseException] = []

        def waiter() -> None:
            try:
                admission.acquire(deadline=time.monotonic() + 0.1)
            except BaseException as error:  # noqa: BLE001 - asserting type
                errors.append(error)

        thread = threading.Thread(target=waiter)
        thread.start()
        thread.join(timeout=5)
        assert len(errors) == 1
        assert isinstance(errors[0], CoreDeadlineExceededError)
        snapshot = admission.snapshot()
        assert snapshot["deadline_shed"] == 1
        assert snapshot["queued"] == 0  # the expired waiter left the queue
        admission.release()


# --------------------------------------------------------------------- #
# Micro-batcher follower deadlines
# --------------------------------------------------------------------- #
def test_micro_batch_follower_times_out_individually():
    """A follower whose budget lapses mid-execution raises; the leader is
    unaffected and still gets its (late but complete) result."""
    running = threading.Event()
    release_first = threading.Event()
    release_second = threading.Event()
    executions = []

    def execute(key, requests):
        executions.append(len(requests))
        if len(executions) == 1:
            running.set()
            release_first.wait(30)  # the batch the others queue behind
        else:
            release_second.wait(30)  # held until the follower gave up
        return [("result", True) for _ in requests]

    batcher = MicroBatcher(execute)
    outcomes: dict[str, object] = {}

    def first() -> None:
        outcomes["first"] = batcher.submit("k", ["x"], ["b"])

    def leader() -> None:
        outcomes["leader"] = batcher.submit("k", ["a"], ["b"])

    def follower() -> None:
        try:
            batcher.submit(
                "k", ["c"], ["b"], deadline=time.monotonic() + 0.5
            )
        except CoreDeadlineExceededError as error:
            outcomes["follower"] = error

    def queue_behind(target, requests: int) -> threading.Thread:
        thread = threading.Thread(target=target)
        thread.start()
        give_up = time.monotonic() + 5
        while batcher.stats()["requests"] < requests:
            assert time.monotonic() < give_up
            time.sleep(0.001)
        return thread

    first_thread = threading.Thread(target=first)
    first_thread.start()
    assert running.wait(5)
    leader_thread = queue_behind(leader, 2)
    follower_thread = queue_behind(follower, 3)
    release_first.set()  # hands [leader, follower] to the leader
    follower_thread.join(timeout=5)
    release_second.set()
    leader_thread.join(timeout=5)
    first_thread.join(timeout=5)
    assert not any(
        thread.is_alive()
        for thread in (first_thread, leader_thread, follower_thread)
    )
    assert isinstance(outcomes["follower"], CoreDeadlineExceededError)
    result, warm, size = outcomes["leader"]
    assert result == "result" and warm is True and size == 2
    assert executions == [1, 2]


# --------------------------------------------------------------------- #
# Engine failure remapping
# --------------------------------------------------------------------- #
class TestMapFailure:
    def test_core_deadline_maps_to_serve_504(self):
        mapped = ServeEngine._map_failure(
            CoreDeadlineExceededError("expired"), None
        )
        assert isinstance(mapped, DeadlineExceededError)
        assert mapped.status == 504

    def test_shard_error_with_deadline_cause_maps_to_serve_504(self):
        cause = CoreDeadlineExceededError("worker hit the deadline")
        error = ShardError("shard failed", shard=(0, 10), cause=cause)
        mapped = ServeEngine._map_failure(error, None)
        assert isinstance(mapped, DeadlineExceededError)

    def test_shard_timeout_after_the_deadline_maps_to_serve_504(self):
        error = ShardTimeoutError("map deadline expired")
        mapped = ServeEngine._map_failure(error, time.monotonic() - 1.0)
        assert isinstance(mapped, DeadlineExceededError)

    def test_unrelated_failures_pass_through(self):
        error = ShardError("worker raised", cause=ValueError("boom"))
        assert ServeEngine._map_failure(error, None) is error
        plain = ValueError("boom")
        assert ServeEngine._map_failure(plain, None) is plain

    def test_shard_timeout_before_the_deadline_passes_through(self):
        # The executor's own task timeout fired while the request still had
        # budget: that is a shard failure, not a request deadline.
        error = ShardTimeoutError("task timeout")
        assert ServeEngine._map_failure(error, time.monotonic() + 60.0) is error
        assert ServeEngine._map_failure(error, None) is error

    def test_deadline_nested_two_shard_errors_deep_maps_to_504(self):
        inner = ShardError(
            "inner shard", cause=CoreDeadlineExceededError("worker hit it")
        )
        outer = ShardError("outer shard", cause=inner)
        mapped = ServeEngine._map_failure(outer, None)
        assert isinstance(mapped, DeadlineExceededError)
        assert "outer shard" in str(mapped)

    def test_cause_cycle_terminates(self):
        first = ShardError("first")
        second = ShardError("second", cause=first)
        first.cause = second
        assert ServeEngine._map_failure(first, None) is first


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        ("error", "status"),
        [
            (ServeError("x"), 500),
            (BadRequestError("x"), 400),
            (ModelNotFoundError("m"), 404),
            (PayloadTooLargeError(10, 5), 413),
            (OverloadedError("x"), 429),
            (ModelLoadError("m", ValueError("bad")), 500),
            (CircuitOpenError("m", retry_after_s=1.0), 503),
            (DeadlineExceededError("x"), 504),
        ],
        ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
    )
    def test_each_type_carries_its_http_status(self, error, status):
        assert isinstance(error, ServeError)
        assert error.status == status
        assert error.payload() == {
            "error": {"type": type(error).__name__, "message": str(error)}
        }

    def test_messages_name_the_model_and_the_limits(self):
        assert "'staff'" in str(ModelNotFoundError("staff"))
        too_large = PayloadTooLargeError(2048, 1024)
        assert (too_large.length, too_large.limit) == (2048, 1024)
        assert "2048 bytes exceeds the 1024-byte limit" in str(too_large)
        cause = ValueError("corrupt")
        load_error = ModelLoadError("staff", cause)
        assert load_error.cause is cause and "corrupt" in str(load_error)
        assert "retry in 2.50s" in str(CircuitOpenError("staff", retry_after_s=2.5))
        assert OverloadedError("busy").retry_after_s == 1.0


# --------------------------------------------------------------------- #
# Cooperative deadlines on the apply path
# --------------------------------------------------------------------- #
def test_joiner_deadline_expired_raises_and_generous_deadline_matches(
    fitted_model,
):
    pair, model = fitted_model
    source = list(pair.source["value"])
    target = list(pair.target["value"])
    joiner = model.joiner()
    baseline = joiner.join_values(source, target)
    with pytest.raises(CoreDeadlineExceededError):
        joiner.join_values(source, target, deadline=time.monotonic() - 1.0)
    # An expired deadline is an error, never a truncated result; a generous
    # one changes nothing about the output.
    result = joiner.join_values(
        source, target, deadline=time.monotonic() + 60.0
    )
    assert result.pairs == baseline.pairs


# --------------------------------------------------------------------- #
# Serve-scoped fault grammar
# --------------------------------------------------------------------- #
class TestServeFaultGrammar:
    @pytest.mark.parametrize("site", SERVE_SITES)
    def test_parses_serve_sites(self, site):
        spec = parse_fault_spec(f"raise:where={site}")
        assert spec.where == site
        assert spec.matches_site(site)
        # Serve-scoped specs never reach the executor's shard sites.
        assert not spec.matches(0, in_pool_worker=True)
        assert not spec.matches(0, in_pool_worker=False)

    def test_parses_slow_kind_with_seconds(self):
        spec = parse_fault_spec("slow:where=engine:seconds=0.25")
        assert spec.kind == "slow"
        assert spec.seconds == 0.25

    def test_crash_rejected_at_serve_sites(self):
        with pytest.raises(ValueError, match="crash"):
            parse_fault_spec("crash:where=engine")

    def test_executor_wildcard_does_not_reach_serve_sites(self):
        spec = FaultSpec(kind="raise", where="any")
        for site in SERVE_SITES:
            assert not spec.matches_site(site)

    def test_inject_raise_at_matching_site_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:where=engine")
        maybe_inject_serve("registry")  # other site: no-op
        with pytest.raises(FaultInjected):
            maybe_inject_serve("engine")

    def test_injected_hang_is_cut_at_the_deadline(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "hang:where=engine")
        started = time.monotonic()
        with pytest.raises(CoreDeadlineExceededError):
            maybe_inject_serve("engine", deadline=time.monotonic() + 0.15)
        assert time.monotonic() - started < 1.0

    def test_injected_slow_completes_within_its_budget(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", "slow:where=server:seconds=0.1"
        )
        started = time.monotonic()
        maybe_inject_serve("server", deadline=time.monotonic() + 5.0)
        elapsed = time.monotonic() - started
        assert 0.1 <= elapsed < 1.0


# --------------------------------------------------------------------- #
# Request parsing: deadline_ms and the body cap
# --------------------------------------------------------------------- #
def _post(server: JoinServer, name: str, body: bytes) -> tuple[int, dict, dict]:
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            "POST", f"/join/{name}", body, {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        headers = dict(response.getheaders())
        return response.status, json.loads(response.read()), headers
    finally:
        connection.close()


@pytest.fixture()
def small_server(fitted_model, tmp_path):
    _, model = fitted_model
    model.save(tmp_path / "synth.json")
    with JoinServer(tmp_path, port=0, max_body_bytes=2048) as server:
        server.start_background()
        yield server


@pytest.mark.parametrize(
    ("settings", "message"),
    [
        pytest.param(
            {"port": -1}, "port must be in [0, 65535], got -1", id="port-negative"
        ),
        pytest.param(
            {"port": 65536}, "port must be in [0, 65535], got 65536", id="port-high"
        ),
        pytest.param(
            {"request_timeout_s": -1.0},
            "request_timeout_s must be >= 0, got -1.0",
            id="request-timeout",
        ),
        pytest.param(
            {"max_body_bytes": -1},
            "max_body_bytes must be >= 0, got -1",
            id="max-body-bytes",
        ),
    ],
)
def test_server_checks_settings_before_binding(
    tmp_path, monkeypatch, settings, message
):
    def bind(*args, **kwargs):
        raise AssertionError("the port was bound before the settings were checked")

    monkeypatch.setattr(server_module, "_JoinHTTPServer", bind)
    with pytest.raises(ValueError, match=re.escape(message)):
        JoinServer(tmp_path, **{"port": 0, **settings})


class TestRequestParsing:
    @pytest.mark.parametrize(
        "bad",
        [
            0,
            -5,
            "soon",
            True,
            [100],
            float("nan"),
            float("inf"),
            pytest.param(10**400, id="beyond-float-range"),
        ],
    )
    def test_invalid_deadline_ms_is_a_400(self, small_server, bad):
        body = json.dumps(
            {"source": ["a"], "target": ["a"], "deadline_ms": bad}
        ).encode()
        status, payload, _ = _post(small_server, "synth", body)
        assert status == 400
        assert payload["error"]["type"] == "BadRequestError"
        assert "deadline_ms" in payload["error"]["message"]

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(b'{"source": ["\xff\xfe"], "target": ["x"]}', id="not-utf8"),
            pytest.param(b"[" * 1500, id="nested-too-deep"),
        ],
    )
    def test_undecodable_body_is_a_400(self, small_server, body):
        status, payload, _ = _post(small_server, "synth", body)
        assert status == 400
        assert payload["error"]["type"] == "BadRequestError"

    def test_valid_deadline_ms_serves_normally(self, small_server):
        body = json.dumps(
            {"source": ["a"], "target": ["a"], "deadline_ms": 10_000}
        ).encode()
        status, payload, _ = _post(small_server, "synth", body)
        assert status == 200
        assert "pairs" in payload

    def test_oversized_body_is_a_typed_413(self, small_server):
        body = json.dumps(
            {"source": ["x" * 4096], "target": ["a"]}
        ).encode()
        assert len(body) > 2048
        status, payload, _ = _post(small_server, "synth", body)
        assert status == 413
        assert payload["error"]["type"] == "PayloadTooLargeError"

    def test_stats_exposes_admission_and_resilience_sections(
        self, small_server
    ):
        payload = _stats(small_server)
        assert payload["admission"]["max_inflight"] >= 1
        assert payload["resilience"]["shed"] == 0
        assert payload["resilience"]["deadline_exceeded"] == 0
        assert "breakers" in payload["engine"]


def _stats(server: JoinServer) -> dict:
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", "/stats")
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


class TestStatsErrors:
    def test_client_mistakes_are_not_server_errors(self, small_server):
        join = json.dumps({"source": ["a"], "target": ["a"]}).encode()
        oversized = json.dumps({"source": ["x" * 4096], "target": ["a"]}).encode()
        assert _post(small_server, "synth", b"not json")[0] == 400
        assert _post(small_server, "missing", join)[0] == 404
        assert _post(small_server, "synth", oversized)[0] == 413
        stats = _stats(small_server)
        assert (stats["requests"], stats["errors"]) == (3, 0)

    def test_a_failure_of_the_server_is_an_error(self, small_server, monkeypatch):
        join = json.dumps({"source": ["a"], "target": ["a"]}).encode()
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:where=server")
        status, payload, _ = _post(small_server, "synth", join)
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        assert status == 500
        assert payload["error"]["type"] == "FaultInjected"
        stats = _stats(small_server)
        assert (stats["requests"], stats["errors"]) == (1, 1)


# --------------------------------------------------------------------- #
# Latency window stays bounded
# --------------------------------------------------------------------- #
def test_latency_stats_window_is_bounded_but_totals_are_exact(monkeypatch):
    monkeypatch.setattr(server_module, "_LATENCY_WINDOW", 16)
    stats = LatencyStats()
    for index in range(100):
        stats.record(index / 1000.0, warm=index > 0)
    snapshot = stats.snapshot()
    assert snapshot["count"] == 100
    assert snapshot["warm_count"] == 99
    assert snapshot["first_request_ms"] == 0.0
    assert snapshot["max_ms"] == pytest.approx(99.0)
    # Quantiles come from the bounded recent window (the last 16 samples).
    assert snapshot["p50_ms"] >= 84.0
    assert len(stats._recent) == 16
