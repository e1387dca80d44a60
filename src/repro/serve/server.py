"""A long-lived, stdlib-only HTTP join server.

``ThreadingHTTPServer`` + JSON — no dependency beyond the standard library.
One server process keeps a :class:`~repro.serve.registry.ModelRegistry` of
fitted models warm and exposes:

``POST /join/<model>``
    Body ``{"source": [...], "target": [...]}`` (lists of strings), plus an
    optional ``"deadline_ms"`` — this request's wall-clock budget (the
    server-wide ``request_timeout_s`` applies otherwise).  Joins the source
    values against the target values with the named model's
    transformations; the response carries the joined ``pairs`` (identical —
    same pairs, same order — to offline
    :meth:`~repro.join.pipeline.JoinPipeline.apply`), per-pair ``matched_by``
    attribution, and whether the request was served warm.
``GET /models``
    The registry catalogue, per-model load errors included inline.
``GET /stats``
    Uptime, request totals, ``errors`` (the answers with status 500 or
    above; a client's mistake, 4xx, is not an error), shed/deadline
    counters, admission gauges (in-flight, queue depth, peaks), per-model
    circuit-breaker states, per-model latency quantiles (p50/p99 over a
    sliding window) split warm/cold, registry cache counters, and
    micro-batcher counters.
``GET /healthz``
    ``200 {"status": "ok"}`` while serving, ``503 {"status": "overloaded"}``
    while every execution slot is busy, ``503 {"status": "draining"}`` once
    shutdown has been requested.

Failures map through the typed taxonomy of :mod:`repro.serve.errors` to
4xx/5xx JSON bodies — 400 bad request, 404 unknown model, 413 oversized
body, 429 shed by admission control (+ ``Retry-After``), 500 load/shard
failures, 503 open circuit breaker (+ ``Retry-After``), 504 expired
deadline — never a hung or half-written response.  Requests execute behind
an :class:`~repro.serve.admission.AdmissionController` (bounded in-flight
concurrency + bounded wait queue; beyond that, shed) and per-model circuit
breakers fed by the engine's typed outcomes.  ``SIGTERM``/``SIGINT``
trigger a graceful drain: the accept loop stops, in-flight requests finish
(handler threads are non-daemon and joined on close), and ``/healthz``
flips to 503 so load balancers stop routing new traffic.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.parallel.errors import DeadlineExceededError as CoreDeadlineExceededError
from repro.parallel.errors import ShardError
from repro.serve.admission import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_MAX_QUEUE,
    AdmissionController,
)
from repro.serve.breaker import DEFAULT_COOLDOWN_S, DEFAULT_FAILURE_THRESHOLD
from repro.serve.engine import ServeEngine
from repro.serve.errors import (
    BadRequestError,
    DeadlineExceededError,
    PayloadTooLargeError,
    ServeError,
)
from repro.serve.registry import ModelRegistry

#: Sliding-window size of the per-model latency reservoirs.
_LATENCY_WINDOW = 4096

#: Default server-wide request budget, seconds (0 disables).  Generous on
#: purpose: it is the backstop for requests that set no ``deadline_ms``,
#: bounding how long a handler thread can be held, not a latency target.
DEFAULT_REQUEST_TIMEOUT_S = 30.0

#: Default request-body cap, bytes.  A join request is two string columns;
#: 8 MB of JSON is far above any sane micro-batch and far below what a
#: hostile Content-Length could otherwise make the server buffer.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted ``deadline_ms``: the longest wait the ``threading``
#: primitives accept, which raise ``OverflowError`` past it.
_MAX_DEADLINE_MS = threading.TIMEOUT_MAX * 1000.0

#: Duplicated from :mod:`repro.testing.faults` (zero-cost guard when unset).
_FAULT_ENV = "REPRO_FAULT_INJECT"


class LatencyStats:
    """Thread-safe per-model latency tracker with warm/cold split.

    Keeps exact totals plus a bounded sliding window of recent latencies
    for quantiles — a long-lived server must not grow with request count,
    and recent-window p50/p99 is what an operator actually watches.  The
    first (cold) request's latency is pinned separately: it is the number
    the warm path is measured against.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # deque(maxlen=...) evicts from the front in O(1) per append; the
        # old list-trim paid O(window) on every request past capacity.
        self._recent: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._count = 0
        self._warm_count = 0
        self._total_s = 0.0
        self._max_s = 0.0
        self._first_s: float | None = None

    def record(self, seconds: float, *, warm: bool) -> None:
        with self._lock:
            self._count += 1
            self._warm_count += 1 if warm else 0
            self._total_s += seconds
            self._max_s = max(self._max_s, seconds)
            if self._first_s is None:
                self._first_s = seconds
            self._recent.append(seconds)

    @staticmethod
    def _quantile(ordered: list[float], q: float) -> float:
        return ordered[min(int(q * len(ordered)), len(ordered) - 1)]

    def snapshot(self) -> dict:
        with self._lock:
            recent = sorted(self._recent)
            count = self._count
            snapshot = {
                "count": count,
                "warm_count": self._warm_count,
                "cold_count": count - self._warm_count,
                "mean_ms": (self._total_s / count * 1000.0) if count else 0.0,
                "max_ms": self._max_s * 1000.0,
                "first_request_ms": (
                    self._first_s * 1000.0 if self._first_s is not None else None
                ),
            }
            if recent:
                snapshot["p50_ms"] = self._quantile(recent, 0.50) * 1000.0
                snapshot["p99_ms"] = self._quantile(recent, 0.99) * 1000.0
            return snapshot


class _JoinHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the serving state handlers read."""

    # Graceful drain: handler threads must be joined on close, not
    # abandoned mid-request.
    daemon_threads = False
    block_on_close = True
    # A bounded accept backlog for bursty closed-loop clients.
    request_queue_size = 64

    def __init__(
        self,
        address: tuple[str, int],
        engine: ServeEngine,
        *,
        admission: AdmissionController | None = None,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        super().__init__(address, _JoinRequestHandler)
        self.engine = engine
        self.admission = admission or AdmissionController()
        self.request_timeout_s = request_timeout_s
        self.max_body_bytes = max_body_bytes
        self.draining = False
        self.started_at = time.monotonic()
        self.request_count = 0
        self.error_count = 0
        self.deadline_count = 0
        self.latency: dict[str, LatencyStats] = {}
        self.stats_lock = threading.Lock()

    def latency_for(self, model: str) -> LatencyStats:
        with self.stats_lock:
            stats = self.latency.get(model)
            if stats is None:
                stats = self.latency[model] = LatencyStats()
            return stats

    def count_request(self, status: int) -> None:
        """Count one answered request; ``errors`` counts the 5xx answers.

        A shed request (429) is counted in the admission controller's
        ``shed``, and an expired deadline (504) also in ``deadline_count``.
        """
        with self.stats_lock:
            self.request_count += 1
            self.error_count += 1 if status >= 500 else 0
            self.deadline_count += 1 if status == DeadlineExceededError.status else 0


class _JoinRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: headers and body go out as separate writes; with Nagle
    # on, the second write of a small response stalls behind the peer's
    # delayed ACK (~40ms on Linux) once the connection leaves quickack
    # mode — a 40ms latency floor on every warm keep-alive request.
    disable_nagle_algorithm = True
    # Bound how long an idle keep-alive connection can hold a handler
    # thread hostage during drain.
    timeout = 10.0
    server: _JoinHTTPServer  # narrowed for handler code

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path == "/healthz":
            if self.server.draining:
                self._respond(503, {"status": "draining"})
            elif self.server.admission.saturated:
                # Every execution slot busy: still alive, but a load
                # balancer should prefer a less-loaded replica.
                self._respond(503, {"status": "overloaded"})
            else:
                self._respond(200, {"status": "ok"})
            return
        if self.path == "/models":
            self._guarded(lambda: (200, {"models": self.server.engine.registry.list_models()}))
            return
        if self.path == "/stats":
            self._guarded(lambda: (200, self._stats_payload()))
            return
        self._respond(
            404, {"error": {"type": "NotFound", "message": f"no route {self.path}"}}
        )

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if not self.path.startswith("/join/"):
            self._respond(
                404,
                {"error": {"type": "NotFound", "message": f"no route {self.path}"}},
            )
            return
        model_name = self.path[len("/join/") :]
        self._guarded(lambda: self._handle_join(model_name))

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    def _handle_join(self, model_name: str) -> tuple[int, dict]:
        source_values, target_values, deadline_ms = self._read_join_body()
        # Per-request deadline_ms wins; otherwise the server-wide default
        # applies (0 = unbounded).  Computed before admission so time spent
        # queued consumes the same budget the apply stage will.
        budget_s: float | None = None
        if deadline_ms is not None:
            budget_s = deadline_ms / 1000.0
        elif self.server.request_timeout_s > 0:
            budget_s = self.server.request_timeout_s
        deadline = time.monotonic() + budget_s if budget_s is not None else None
        if os.environ.get(_FAULT_ENV):
            from repro.testing.faults import maybe_inject_serve  # noqa: PLC0415

            maybe_inject_serve("server", deadline=deadline)
        admission = self.server.admission
        admission.acquire(deadline)
        try:
            started = time.perf_counter()
            response = self.server.engine.join(
                model_name, source_values, target_values, deadline=deadline
            )
            elapsed = time.perf_counter() - started
        finally:
            admission.release()
        self.server.latency_for(model_name).record(elapsed, warm=response.warm)
        return 200, response.to_payload()

    def _read_join_body(self) -> tuple[list[str], list[str], float | None]:
        """Parse and validate the request body.

        Returns ``(source, target, deadline_ms)``; raises
        :class:`BadRequestError` on malformed input and
        :class:`PayloadTooLargeError` — from the declared length, before
        reading a byte — when the body exceeds the configured cap.
        """
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise BadRequestError("invalid Content-Length header") from None
        if length <= 0:
            raise BadRequestError("request body required")
        limit = self.server.max_body_bytes
        if limit > 0 and length > limit:
            raise PayloadTooLargeError(length, limit)
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except (ValueError, RecursionError) as error:
            # ValueError: malformed JSON, a body that is not UTF-8, or an
            # integer past the digit limit; RecursionError: nesting too deep.
            raise BadRequestError(f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        values: dict[str, list[str]] = {}
        for field in ("source", "target"):
            column = payload.get(field)
            if not isinstance(column, list) or not all(
                isinstance(value, str) for value in column
            ):
                raise BadRequestError(
                    f"field {field!r} must be a list of strings"
                )
            values[field] = column
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            # The range test also rejects NaN and Infinity, which Python's
            # json accepts although RFC 8259 has no such numbers.
            if (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or not 0 < deadline_ms <= _MAX_DEADLINE_MS
            ):
                raise BadRequestError(
                    "field 'deadline_ms' must be a positive number of "
                    f"milliseconds, at most {_MAX_DEADLINE_MS:.0f}"
                )
        return values["source"], values["target"], deadline_ms

    def _stats_payload(self) -> dict:
        server = self.server
        with server.stats_lock:
            requests = server.request_count
            errors = server.error_count
            deadline_exceeded = server.deadline_count
            latencies = {
                name: stats for name, stats in server.latency.items()
            }
        admission = server.admission.snapshot()
        return {
            "uptime_s": time.monotonic() - server.started_at,
            "requests": requests,
            "errors": errors,
            "draining": server.draining,
            "admission": admission,
            "resilience": {
                "shed": admission["shed"],
                "deadline_exceeded": deadline_exceeded,
                "request_timeout_s": server.request_timeout_s,
                "max_body_bytes": server.max_body_bytes,
            },
            "engine": server.engine.stats(),
            "models": {
                name: stats.snapshot() for name, stats in latencies.items()
            },
        }

    # ------------------------------------------------------------------ #
    # Error mapping and plumbing
    # ------------------------------------------------------------------ #
    def _guarded(self, handler) -> None:
        """Run a route handler, mapping the typed taxonomy to 4xx/5xx JSON."""
        try:
            status, payload = handler()
        except CoreDeadlineExceededError as error:
            # The cooperative deadline cut, raised above the engine's remap
            # (the admission queue, the server fault site): same 504 as the
            # serve-layer type.
            self._respond_error(DeadlineExceededError(str(error)))
            return
        except ServeError as error:
            self._respond_error(error)
            return
        except ShardError as error:
            # The parallel layer's typed failures (crash, timeout with the
            # serial fallback disabled) are server-side: 500, with the
            # precise type preserved for the client.
            self.server.count_request(500)
            self._respond(
                500,
                {"error": {"type": type(error).__name__, "message": str(error)}},
            )
            return
        except Exception as error:  # noqa: BLE001 - must answer, not hang
            self.server.count_request(500)
            self._respond(
                500,
                {"error": {"type": type(error).__name__, "message": str(error)}},
            )
            return
        self.server.count_request(status)
        self._respond(status, payload)

    def _respond_error(self, error: ServeError) -> None:
        """Answer one typed serving failure, updating the counters."""
        self.server.count_request(error.status)
        self._respond(
            error.status,
            error.payload(),
            retry_after_s=getattr(error, "retry_after_s", None),
        )

    def _respond(
        self, status: int, payload: dict, *, retry_after_s: float | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            # Integer seconds per RFC 9110, rounded up so "retry after
            # 0.3s" does not become "retry immediately".
            self.send_header("Retry-After", str(max(1, int(-(-retry_after_s // 1)))))
        if self.server.draining:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Per-request stderr logging off by default; /stats observes instead."""


class JoinServer:
    """The long-lived join-serving process, wrapped for library and CLI use.

    Composes registry → engine → threaded HTTP server.  ``port=0`` binds an
    ephemeral port (the tests use this); ``address`` reports the bound one.
    Every setting is checked here, before the port is bound, so a bad value
    fails at startup and not on the first request.
    """

    def __init__(
        self,
        model_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        num_workers: int | None = None,
        joiner_cache_capacity: int = 16,
        index_cache_capacity: int = 32,
        micro_batch: bool = True,
        task_timeout_s: float = 0.0,
        shard_retries: int = 2,
        serial_fallback: bool = True,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        breaker_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        breaker_cooldown_s: float = DEFAULT_COOLDOWN_S,
    ) -> None:
        if not 0 <= port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {port}")
        if request_timeout_s < 0:
            raise ValueError(
                f"request_timeout_s must be >= 0, got {request_timeout_s}"
            )
        if max_body_bytes < 0:
            raise ValueError(f"max_body_bytes must be >= 0, got {max_body_bytes}")
        self.registry = ModelRegistry(
            model_dir,
            joiner_cache_capacity=joiner_cache_capacity,
            index_cache_capacity=index_cache_capacity,
            num_workers=num_workers,
            task_timeout_s=task_timeout_s,
            shard_retries=shard_retries,
            serial_fallback=serial_fallback,
        )
        self.engine = ServeEngine(
            self.registry,
            micro_batch=micro_batch,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_s=breaker_cooldown_s,
        )
        self.admission = AdmissionController(
            max_inflight=max_inflight, max_queue=max_queue
        )
        self._http = _JoinHTTPServer(
            (host, port),
            self.engine,
            admission=self.admission,
            request_timeout_s=request_timeout_s,
            max_body_bytes=max_body_bytes,
        )
        self._serve_thread: threading.Thread | None = None
        self._shutdown_started = threading.Event()
        self._serving = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port resolved when 0 was requested."""
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Serve until :meth:`request_shutdown` (or a handled signal)."""
        self._serving.set()
        if not self._shutdown_started.is_set():
            self._http.serve_forever(poll_interval=0.05)

    def start_background(self) -> None:
        """Serve from a background thread (tests, in-process benchmarks)."""
        if self._serve_thread is not None:
            raise RuntimeError("server already started")
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._serve_thread.start()

    def request_shutdown(self) -> None:
        """Begin a graceful drain: stop accepting, let in-flight finish.

        Safe to call from any thread and from signal handlers; idempotent.
        ``shutdown()`` must not run on the serve_forever thread itself, so
        it is dispatched to a helper thread.  It waits until the accept loop
        stops, so it is not started for a server that never served: that
        helper thread would wait forever.
        """
        if self._shutdown_started.is_set():
            return
        self._shutdown_started.set()
        self._http.draining = True
        if not self._serving.is_set():
            return
        threading.Thread(
            target=self._http.shutdown, name="repro-serve-shutdown", daemon=True
        ).start()

    def install_signal_handlers(self) -> None:
        """Map SIGTERM/SIGINT to the graceful drain (CLI entry point)."""

        def _drain(signum, frame) -> None:  # noqa: ARG001 - signal API
            self.request_shutdown()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)

    def close(self) -> None:
        """Drain, stop the accept loop, and join handler threads."""
        self.request_shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=30.0)
            self._serve_thread = None
        self._http.server_close()

    def __enter__(self) -> "JoinServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["JoinServer", "LatencyStats"]
