"""Per-model circuit breakers: fail fast when a model keeps failing.

A model that fails repeatedly — a corrupt artifact re-raising on every
lookup, a join that keeps hitting its deadline, a flaky sharded pool —
costs full price per request while returning nothing.  The breaker turns
that into a near-zero-cost typed rejection:

* **closed** (healthy): requests pass through; consecutive *typed*
  failures are counted, and any success resets the count.
* **open**: ``failure_threshold`` consecutive failures trip the breaker —
  requests are rejected immediately with
  :class:`~repro.serve.errors.CircuitOpenError` (503 + ``Retry-After``)
  without touching the registry or the engine.
* **half-open**: after ``cooldown_s`` the next request is admitted as the
  *single* probe (concurrent requests keep getting 503 while it runs); a
  probe success closes the breaker, a probe failure re-opens it and
  restarts the cool-down.

The open state also watches the model file itself: ``file_key_fn`` (a
cheap ``stat``) is consulted on rejected requests, and a changed file key —
the operator shipped a fixed artifact — admits a probe immediately instead
of waiting out the cool-down.  A successful probe after a reload is exactly
the "successful registry reload closes it" contract: the probe goes
through the registry, which reloads the changed file, and its success
closes the breaker.

Which failures count is the *caller's* decision (the engine counts its
typed taxonomy — load errors, shard errors, deadlines, injected faults —
and calls :meth:`CircuitBreaker.record_abort` for everything else, e.g. a
400, so client mistakes can never open a breaker).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Hashable

from repro.serve.errors import CircuitOpenError

#: Default consecutive-failure threshold before the breaker opens.
DEFAULT_FAILURE_THRESHOLD = 5

#: Default open-state cool-down before a half-open probe is admitted.
DEFAULT_COOLDOWN_S = 2.0


class CircuitBreaker:
    """One model's failure-driven admission gate.

    Thread-safe; the serving handler threads share one instance per model.
    The protocol per request is ``acquire()`` (raises
    :class:`CircuitOpenError` when open), then exactly one of
    ``record_success()`` / ``record_failure()`` / ``record_abort()``.
    """

    def __init__(
        self,
        name: str,
        *,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown_s: float = DEFAULT_COOLDOWN_S,
        file_key_fn: Callable[[], Hashable | None] | None = None,
    ) -> None:
        self.check_settings(
            failure_threshold=failure_threshold, cooldown_s=cooldown_s
        )
        self._name = name
        self._threshold = failure_threshold
        self._cooldown_s = cooldown_s
        self._file_key_fn = file_key_fn
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._file_key_at_open: Hashable | None = None
        self._probe_in_flight = False
        # Counters for /stats.
        self._opened_count = 0
        self._rejected_count = 0

    @staticmethod
    def check_settings(
        *,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown_s: float = DEFAULT_COOLDOWN_S,
    ) -> None:
        """Raise ``ValueError`` when a breaker setting is out of range.

        The constructor runs these checks.  The engine builds its breakers
        lazily, on a model's first failure, so it calls this when it is
        built: a bad value fails there and not on the first failing join.
        """
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")

    def acquire(self) -> None:
        """Admit this request or raise :class:`CircuitOpenError`.

        In the open state the request is rejected unless the cool-down has
        elapsed or the model file's key changed since the breaker opened
        — either admits it as the half-open probe.  In the half-open state
        only the probe slot's holder is admitted; everyone else keeps
        getting 503 until the probe resolves.
        """
        with self._lock:
            if self._state == "closed":
                return
            now = time.monotonic()
            if self._state == "open":
                elapsed = now - self._opened_at
                if elapsed < self._cooldown_s and not self._file_changed():
                    self._rejected_count += 1
                    raise CircuitOpenError(
                        self._name,
                        retry_after_s=max(self._cooldown_s - elapsed, 0.0),
                    )
                self._state = "half_open"
                self._probe_in_flight = True
                return
            # half_open: one probe at a time.
            if self._probe_in_flight:
                self._rejected_count += 1
                raise CircuitOpenError(
                    self._name, retry_after_s=self._cooldown_s
                )
            self._probe_in_flight = True

    def record_success(self) -> None:
        """A passed-through request succeeded: close and reset."""
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0
            self._probe_in_flight = False
            self._file_key_at_open = None

    def record_failure(self) -> None:
        """A passed-through request failed in a countable (typed) way."""
        with self._lock:
            if self._state == "half_open":
                # The probe failed: re-open and restart the cool-down.
                self._reopen()
                return
            self._consecutive_failures += 1
            if (
                self._state == "closed"
                and self._consecutive_failures >= self._threshold
            ):
                self._reopen()

    def record_abort(self) -> None:
        """A passed-through request ended without a countable verdict.

        Client errors (a 400, a too-large body) say nothing about the
        model's health, but a half-open probe that ends this way must free
        the probe slot — otherwise one malformed request could wedge the
        breaker half-open forever.
        """
        with self._lock:
            if self._state == "half_open":
                self._state = "open"
                self._opened_at = time.monotonic()
                self._probe_in_flight = False

    def _reopen(self) -> None:
        """Trip to open (lock held), recording the artifact's current key."""
        self._state = "open"
        self._opened_at = time.monotonic()
        self._probe_in_flight = False
        self._opened_count += 1
        self._consecutive_failures = self._threshold
        self._file_key_at_open = (
            self._file_key_fn() if self._file_key_fn is not None else None
        )

    def _file_changed(self) -> bool:
        """Whether the model file changed on disk since the breaker opened."""
        if self._file_key_fn is None:
            return False
        current = self._file_key_fn()
        return current is not None and current != self._file_key_at_open

    def snapshot(self) -> dict:
        """State and counters for ``/stats``."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self._threshold,
                "cooldown_s": self._cooldown_s,
                "times_opened": self._opened_count,
                "rejected": self._rejected_count,
            }


__all__ = [
    "DEFAULT_COOLDOWN_S",
    "DEFAULT_FAILURE_THRESHOLD",
    "CircuitBreaker",
]
