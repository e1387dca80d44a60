"""The typed error taxonomy of the serving layer.

Every failure a request can hit maps to one exception type carrying an HTTP
status, so the server translates errors to 4xx/5xx JSON bodies with a single
handler instead of scattering status codes through the routing code — the
same philosophy as the sharded executor's :mod:`repro.parallel.errors`
taxonomy, which the server maps through this one (a ``ShardError`` surfaces
as a 500 ``upstream`` body).

* :class:`BadRequestError` (400) — the client sent something unusable:
  invalid JSON, a missing ``source``/``target`` field, non-string values.
* :class:`ModelNotFoundError` (404) — no model of that name exists in the
  registry directory.
* :class:`PayloadTooLargeError` (413) — the request body exceeds the
  server's configured byte cap; rejected before a byte of it is parsed.
* :class:`OverloadedError` (429) — admission control shed the request: the
  in-flight limit and the wait queue are both full.  Carries
  ``retry_after_s`` → a ``Retry-After`` header.
* :class:`ModelLoadError` (500) — the model file exists but cannot be
  loaded (corrupt JSON, foreign format, unsupported schema version, I/O
  error).  Scoped to the one model: every other model keeps serving.
* :class:`CircuitOpenError` (503) — the model's circuit breaker is open
  after consecutive typed failures; the request failed fast without
  touching the engine.  Carries ``retry_after_s``.
* :class:`DeadlineExceededError` (504) — the request's deadline
  (``deadline_ms`` or the server-wide default) expired before a complete
  result existed.  Responses are complete-or-error, never partial, so an
  expired budget is always this typed error.
"""

from __future__ import annotations


class ServeError(RuntimeError):
    """Base type of all serving-layer failures.

    ``status`` is the HTTP status code the server maps this error to.
    """

    status = 500

    def payload(self) -> dict:
        """The JSON error body the server responds with."""
        return {"error": {"type": type(self).__name__, "message": str(self)}}


class BadRequestError(ServeError):
    """The request body or parameters are malformed (HTTP 400)."""

    status = 400


class ModelNotFoundError(ServeError):
    """No model of the requested name exists in the registry (HTTP 404)."""

    status = 404

    def __init__(self, name: str) -> None:
        super().__init__(f"no model named {name!r} in the registry")
        self.name = name


class PayloadTooLargeError(ServeError):
    """The request body exceeds the configured size cap (HTTP 413).

    Raised from the declared ``Content-Length`` before any of the body is
    read, so an oversized request costs the server a header parse, not an
    unbounded buffer.
    """

    status = 413

    def __init__(self, length: int, limit: int) -> None:
        super().__init__(
            f"request body of {length} bytes exceeds the {limit}-byte limit"
        )
        self.length = length
        self.limit = limit


class OverloadedError(ServeError):
    """Admission control shed the request (HTTP 429 + ``Retry-After``).

    Both the in-flight limit and the bounded wait queue were full; shedding
    immediately is what keeps latency bounded for the requests already
    admitted.  ``retry_after_s`` is the client's backoff hint.
    """

    status = 429

    def __init__(self, message: str, *, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ModelLoadError(ServeError):
    """A registry model file exists but cannot be loaded (HTTP 500).

    The failure is per model: the registry records it (``cause`` keeps the
    underlying :class:`~repro.model.serialization.ModelFormatError` or
    ``OSError``) and other models keep serving.
    """

    status = 500

    def __init__(self, name: str, cause: BaseException) -> None:
        super().__init__(f"model {name!r} failed to load: {cause}")
        self.name = name
        self.cause = cause


class CircuitOpenError(ServeError):
    """The model's circuit breaker is open (HTTP 503 + ``Retry-After``).

    The request failed fast — no registry load, no apply — because the
    model's recent typed failures crossed the breaker threshold.  The
    breaker half-opens after its cool-down (or immediately once the model
    file changes on disk), so ``retry_after_s`` tells clients when
    a probe is worth sending.
    """

    status = 503

    def __init__(self, name: str, *, retry_after_s: float) -> None:
        super().__init__(
            f"circuit breaker for model {name!r} is open; retry in "
            f"{retry_after_s:.2f}s"
        )
        self.name = name
        self.retry_after_s = retry_after_s


class DeadlineExceededError(ServeError):
    """The request's deadline expired before a complete result (HTTP 504).

    Served responses are byte-identical-or-error: a request whose
    ``deadline_ms`` (or the server-wide default) runs out gets this typed
    error, never a partial pair list, and the workers computing it stop at
    their next block boundary instead of finishing work nobody will read.
    """

    status = 504


__all__ = [
    "BadRequestError",
    "CircuitOpenError",
    "DeadlineExceededError",
    "ModelLoadError",
    "ModelNotFoundError",
    "OverloadedError",
    "PayloadTooLargeError",
    "ServeError",
]
