"""Admission control: bounded concurrency and load shedding for the server.

Without it, overload is absorbed by the TCP accept backlog and an unbounded
pile of handler threads — every request is eventually served, each slower
than the last, until latency is unbounded for all of them.  The
:class:`AdmissionController` bounds both dimensions explicitly:

* at most ``max_inflight`` requests execute concurrently;
* at most ``max_queue`` more wait (FIFO by condition-variable wakeup) for a
  slot;
* anything beyond that is *shed* immediately with
  :class:`~repro.serve.errors.OverloadedError` (429 + ``Retry-After``) —
  the cheap, predictable failure that keeps the admitted requests' latency
  bounded.

A queued request keeps honouring its own deadline: if the budget expires
while waiting for a slot, it leaves the queue with the core
:class:`~repro.parallel.errors.DeadlineExceededError` (→ 504) instead of
executing an apply nobody is waiting for.
"""

from __future__ import annotations

import threading
import time

from repro.parallel.errors import DeadlineExceededError
from repro.serve.errors import OverloadedError

#: Default concurrent-execution bound.
DEFAULT_MAX_INFLIGHT = 32

#: Default wait-queue bound on top of the in-flight bound.
DEFAULT_MAX_QUEUE = 64

#: ``Retry-After`` hint on a shed request, in seconds.
RETRY_AFTER_S = 1.0


class AdmissionController:
    """A condition-variable gate bounding in-flight and queued requests.

    The protocol per request is ``acquire(deadline)`` then a guaranteed
    ``release()`` (the server wraps the handler in try/finally).
    """

    def __init__(
        self,
        *,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self._max_inflight = max_inflight
        self._max_queue = max_queue
        self._condition = threading.Condition()
        self._in_flight = 0
        self._queued = 0
        # Counters for /stats.
        self._admitted = 0
        self._shed = 0
        self._deadline_shed = 0
        self._peak_in_flight = 0
        self._peak_queued = 0

    @property
    def saturated(self) -> bool:
        """Whether every execution slot is busy (drives ``/healthz``)."""
        with self._condition:
            return self._in_flight >= self._max_inflight

    def acquire(self, deadline: float | None = None) -> None:
        """Take an execution slot, queueing within bounds.

        Raises :class:`OverloadedError` when the wait queue is full, and
        the core :class:`DeadlineExceededError` when *deadline* (a
        monotonic timestamp) expires while queued.
        """
        with self._condition:
            if (
                self._in_flight >= self._max_inflight
                and self._queued >= self._max_queue
            ):
                self._shed += 1
                raise OverloadedError(
                    f"server is at capacity ({self._in_flight} in flight, "
                    f"{self._queued} queued)",
                    retry_after_s=RETRY_AFTER_S,
                )
            self._queued += 1
            self._peak_queued = max(self._peak_queued, self._queued)
            try:
                while self._in_flight >= self._max_inflight:
                    timeout = None
                    if deadline is not None:
                        timeout = deadline - time.monotonic()
                        if timeout <= 0:
                            self._deadline_shed += 1
                            raise DeadlineExceededError(
                                "request deadline expired while queued for "
                                "admission"
                            )
                    self._condition.wait(timeout)
            finally:
                self._queued -= 1
            self._in_flight += 1
            self._admitted += 1
            self._peak_in_flight = max(self._peak_in_flight, self._in_flight)

    def release(self) -> None:
        """Return an execution slot and wake one waiter."""
        with self._condition:
            self._in_flight -= 1
            self._condition.notify()

    def snapshot(self) -> dict:
        """Gauges and counters for ``/stats``."""
        with self._condition:
            return {
                "in_flight": self._in_flight,
                "queued": self._queued,
                "max_inflight": self._max_inflight,
                "max_queue": self._max_queue,
                "admitted": self._admitted,
                "shed": self._shed,
                "deadline_shed": self._deadline_shed,
                "peak_in_flight": self._peak_in_flight,
                "peak_queued": self._peak_queued,
            }


__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_MAX_QUEUE",
    "RETRY_AFTER_S",
    "AdmissionController",
]
