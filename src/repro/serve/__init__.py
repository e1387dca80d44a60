"""The serving layer: long-lived join serving over persisted models.

PR 5 made serving ~50x cheaper than training; this package is the subsystem
that exploits it as a long-lived process instead of cold one-shot applies:

``repro.serve.registry``
    :class:`ModelRegistry` — named models loaded from a directory,
    reloaded when the file changes, with the compiled joiner per model and the
    packed target :class:`~repro.matching.index.ValueIndex` per target
    column kept warm behind bounded LRU caches.
``repro.serve.engine``
    :class:`ServeEngine` — the request path, with a micro-batcher that
    coalesces concurrent same-model requests into one sharded apply call,
    responses byte-identical to offline ``JoinPipeline.apply``.
``repro.serve.server``
    :class:`JoinServer` — a stdlib ``ThreadingHTTPServer`` exposing
    ``POST /join/<model>``, ``GET /models``, ``GET /stats`` and
    ``GET /healthz``, with per-model latency stats and graceful drain on
    SIGTERM.
``repro.serve.errors``
    The typed error taxonomy the server maps to 4xx/5xx JSON bodies.
``repro.serve.admission``
    :class:`AdmissionController` — bounded in-flight concurrency plus a
    bounded wait queue in front of the join handler; beyond both, requests
    are shed with 429 + ``Retry-After``.
``repro.serve.breaker``
    :class:`CircuitBreaker` — per-model consecutive-failure gates that
    fail fast (503) while a model keeps failing, with half-open probes and
    immediate reopening on a changed artifact file.

Typical usage::

    from repro.serve import JoinServer

    with JoinServer("models/", port=8080) as server:
        server.serve_forever()

or from the command line: ``python -m repro serve --models models/``.
"""

from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import LRUCache
from repro.serve.engine import MicroBatcher, ServeEngine, ServeResponse
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
from repro.serve.registry import ModelEntry, ModelRegistry
from repro.serve.server import JoinServer, LatencyStats

__all__ = [
    "AdmissionController",
    "BadRequestError",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "JoinServer",
    "LRUCache",
    "LatencyStats",
    "MicroBatcher",
    "ModelEntry",
    "ModelLoadError",
    "ModelNotFoundError",
    "ModelRegistry",
    "OverloadedError",
    "PayloadTooLargeError",
    "ServeEngine",
    "ServeError",
    "ServeResponse",
]
