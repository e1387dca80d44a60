"""Chaos tests: the serving layer under injected faults and overload.

The acceptance bar of the resilience PR, proven end to end over HTTP:

* an injected hang (registry, engine, or server site) with a
  ``deadline_ms`` budget answers a typed 504 within ~2x the deadline —
  never a held thread — and the next request succeeds once the fault is
  removed;
* saturation (more concurrent clients than ``max_inflight`` +
  ``max_queue``) sheds with 429 + ``Retry-After`` and zero 5xx;
* per-model circuit breakers open after consecutive typed failures,
  half-open after the cool-down, and close on a successful probe — or
  immediately once a fixed artifact lands on disk (changed mtime);
* graceful drain finishes deadline-bearing in-flight requests and leaks
  no handler threads.

The CI ``serve-chaos`` job runs this file under both ``fork`` and
``spawn`` start methods.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.datasets.synthetic import SyntheticConfig, generate_table_pair
from repro.join.pipeline import JoinPipeline
from repro.serve import JoinServer

FAULT_ENV = "REPRO_FAULT_INJECT"


@pytest.fixture(scope="module")
def fitted_model():
    pair, _ = generate_table_pair(SyntheticConfig(num_rows=150, seed=29))
    model = JoinPipeline(min_support=0.05).fit(
        pair.source, pair.target, source_column="value", target_column="value"
    )
    return pair, model


@pytest.fixture()
def model_dir(fitted_model, tmp_path):
    """A fresh registry directory per test (some tests touch the file)."""
    _, model = fitted_model
    model.save(tmp_path / "synth.json")
    return tmp_path


def post_join(
    server: JoinServer, body: dict, *, timeout: float = 30.0
) -> tuple[int, dict, dict]:
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            "POST",
            "/join/synth",
            json.dumps(body).encode("utf-8"),
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        headers = dict(response.getheaders())
        return response.status, json.loads(response.read()), headers
    finally:
        connection.close()


def get(server: JoinServer, path: str) -> tuple[int, dict]:
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


# --------------------------------------------------------------------- #
# Deadlines cut injected hangs into typed 504s
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("site", ["registry", "engine", "server"])
def test_injected_hang_answers_504_within_twice_the_deadline_then_recovers(
    model_dir, monkeypatch, site
):
    body = {"source": ["a"], "target": ["a"], "deadline_ms": 500}
    with JoinServer(model_dir, port=0) as server:
        server.start_background()
        monkeypatch.setenv(FAULT_ENV, f"hang:where={site}")
        started = time.monotonic()
        status, payload, _ = post_join(server, body)
        elapsed = time.monotonic() - started
        assert status == 504
        assert payload["error"]["type"] == "DeadlineExceededError"
        # Complete-or-error: a 504 body never smuggles partial pairs.
        assert "pairs" not in payload
        assert 0.45 <= elapsed < 1.2  # ~deadline + one injection tick
        # Removing the fault restores service on the very next request.
        monkeypatch.delenv(FAULT_ENV)
        status, payload, _ = post_join(server, body)
        assert status == 200
        assert "pairs" in payload
        _, stats = get(server, "/stats")
        assert stats["resilience"]["deadline_exceeded"] == 1


def test_server_default_timeout_applies_without_deadline_ms(
    model_dir, monkeypatch
):
    """``--request-timeout-s`` is the backstop for budget-less requests."""
    with JoinServer(model_dir, port=0, request_timeout_s=0.4) as server:
        server.start_background()
        monkeypatch.setenv(FAULT_ENV, "hang:where=engine")
        started = time.monotonic()
        status, payload, _ = post_join(server, {"source": ["a"], "target": ["a"]})
        elapsed = time.monotonic() - started
        assert status == 504
        assert payload["error"]["type"] == "DeadlineExceededError"
        assert elapsed < 1.2


# --------------------------------------------------------------------- #
# Saturation sheds 429, never 5xx
# --------------------------------------------------------------------- #
def test_saturation_sheds_429_with_retry_after_and_zero_5xx(
    model_dir, monkeypatch
):
    with JoinServer(model_dir, port=0, max_inflight=1, max_queue=1) as server:
        server.start_background()
        # Warm the model first so the admitted requests are fast and the
        # slow fault below dominates their latency deterministically.
        status, _, _ = post_join(server, {"source": ["a"], "target": ["a"]})
        assert status == 200
        monkeypatch.setenv(FAULT_ENV, "slow:where=engine:seconds=0.4")
        clients = 6
        barrier = threading.Barrier(clients)
        results: list[tuple[int, dict, dict]] = []
        lock = threading.Lock()

        def client() -> None:
            barrier.wait()
            outcome = post_join(
                server, {"source": ["a"], "target": ["a"], "deadline_ms": 20_000}
            )
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        statuses = sorted(status for status, _, _ in results)
        assert len(statuses) == clients
        # Shed or served — overload must never surface as a server error.
        assert all(status in (200, 429) for status in statuses)
        assert statuses.count(429) >= 1
        assert statuses.count(200) >= 1
        for status, payload, headers in results:
            if status == 429:
                assert payload["error"]["type"] == "OverloadedError"
                assert int(headers["Retry-After"]) >= 1
        monkeypatch.delenv(FAULT_ENV)
        _, stats = get(server, "/stats")
        assert stats["admission"]["shed"] == statuses.count(429)
        assert stats["resilience"]["shed"] == statuses.count(429)
        # A shed request is counted once, as shed, and is no server error.
        assert stats["requests"] == clients + 1
        assert stats["errors"] == 0
        assert stats["admission"]["in_flight"] == 0


def test_healthz_reports_overloaded_while_slots_are_full(
    model_dir, monkeypatch
):
    with JoinServer(model_dir, port=0, max_inflight=1, max_queue=1) as server:
        server.start_background()
        status, _, _ = post_join(server, {"source": ["a"], "target": ["a"]})
        assert status == 200
        monkeypatch.setenv(FAULT_ENV, "slow:where=engine:seconds=0.6")
        done: list[int] = []

        def slow_client() -> None:
            status, _, _ = post_join(
                server, {"source": ["a"], "target": ["a"], "deadline_ms": 20_000}
            )
            done.append(status)

        thread = threading.Thread(target=slow_client)
        thread.start()
        deadline = time.monotonic() + 5.0
        overloaded = None
        while time.monotonic() < deadline:
            status, payload = get(server, "/healthz")
            if status == 503 and payload["status"] == "overloaded":
                overloaded = payload
                break
            time.sleep(0.02)
        thread.join(timeout=30)
        assert overloaded is not None
        assert done == [200]
        status, payload = get(server, "/healthz")
        assert status == 200 and payload["status"] == "ok"


# --------------------------------------------------------------------- #
# Circuit breaker transitions over HTTP
# --------------------------------------------------------------------- #
def test_breaker_opens_half_opens_and_closes(model_dir, monkeypatch):
    with JoinServer(
        model_dir, port=0, breaker_threshold=2, breaker_cooldown_s=0.4
    ) as server:
        server.start_background()
        monkeypatch.setenv(FAULT_ENV, "raise:where=engine")
        for _ in range(2):
            status, payload, _ = post_join(server, {"source": ["a"], "target": ["a"]})
            assert status == 500
            assert payload["error"]["type"] == "FaultInjected"
        # Threshold reached: the breaker fails fast without the engine.
        status, payload, headers = post_join(server, {"source": ["a"], "target": ["a"]})
        assert status == 503
        assert payload["error"]["type"] == "CircuitOpenError"
        assert int(headers["Retry-After"]) >= 1
        monkeypatch.delenv(FAULT_ENV)
        # The fault is gone but the cool-down has not elapsed: still open.
        status, _, _ = post_join(server, {"source": ["a"], "target": ["a"]})
        assert status == 503
        time.sleep(0.5)
        # Half-open probe goes through and succeeds: breaker closes.
        status, payload, _ = post_join(server, {"source": ["a"], "target": ["a"]})
        assert status == 200
        status, _, _ = post_join(server, {"source": ["a"], "target": ["a"]})
        assert status == 200
        _, stats = get(server, "/stats")
        breaker = stats["engine"]["breakers"]["synth"]
        assert breaker["state"] == "closed"
        assert breaker["times_opened"] >= 1
        assert breaker["rejected"] >= 2


def test_breaker_closes_immediately_after_artifact_reload(
    model_dir, monkeypatch
):
    """A fixed model landing on disk (changed mtime) admits the probe
    without waiting out the cool-down."""
    with JoinServer(
        model_dir, port=0, breaker_threshold=1, breaker_cooldown_s=3600.0
    ) as server:
        server.start_background()
        monkeypatch.setenv(FAULT_ENV, "raise:where=engine")
        status, _, _ = post_join(server, {"source": ["a"], "target": ["a"]})
        assert status == 500
        monkeypatch.delenv(FAULT_ENV)
        # Open, and the cool-down is an hour: rejected.
        status, _, _ = post_join(server, {"source": ["a"], "target": ["a"]})
        assert status == 503
        # The operator ships a fixed artifact (same content, new mtime).
        model_path = model_dir / "synth.json"
        stat = model_path.stat()
        os.utime(
            model_path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000)
        )
        status, payload, _ = post_join(server, {"source": ["a"], "target": ["a"]})
        assert status == 200
        assert "pairs" in payload
        _, stats = get(server, "/stats")
        assert stats["engine"]["breakers"]["synth"]["state"] == "closed"


# --------------------------------------------------------------------- #
# Graceful drain under deadline-bearing in-flight load
# --------------------------------------------------------------------- #
def test_drain_finishes_inflight_deadline_requests_without_leaking_threads(
    model_dir, monkeypatch
):
    baseline = set(threading.enumerate())
    server = JoinServer(model_dir, port=0)
    server.start_background()
    status, _, _ = post_join(server, {"source": ["a"], "target": ["a"]})
    assert status == 200
    monkeypatch.setenv(FAULT_ENV, "slow:where=engine:seconds=0.4")
    results: list[int] = []

    def inflight_client() -> None:
        status, _, _ = post_join(
            server, {"source": ["a"], "target": ["a"], "deadline_ms": 20_000}
        )
        results.append(status)

    # A keep-alive connection opened *before* the drain: its handler
    # thread keeps serving it after the accept loop stops, which is how a
    # load balancer's health check observes the 503 flip.
    host, port = server.address
    probe = HTTPConnection(host, port, timeout=30)
    probe.request("GET", "/healthz")
    response = probe.getresponse()
    assert response.status == 200
    response.read()

    client_thread = threading.Thread(target=inflight_client)
    client_thread.start()
    time.sleep(0.15)  # the slow request is now mid-flight
    server.request_shutdown()
    probe.request("GET", "/healthz")
    response = probe.getresponse()
    payload = json.loads(response.read())
    probe.close()
    assert response.status == 503 and payload["status"] == "draining"
    client_thread.join(timeout=30)
    # Drain waited for the in-flight request; it completed, not 5xx/cut.
    assert results == [200]
    server.close()
    assert server._serve_thread is None
    # No leaked handler/serve threads: everything spawned since the
    # baseline snapshot must wind down (the drain helper is a daemon that
    # exits as soon as shutdown() returns).
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        leaked = [
            thread
            for thread in threading.enumerate()
            if thread not in baseline and thread.is_alive()
        ]
        if not leaked:
            break
        time.sleep(0.05)
    assert leaked == []
