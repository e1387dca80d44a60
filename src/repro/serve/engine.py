"""The serving apply engine: micro-batched join requests.

:class:`ServeEngine` is the request/response form behind the HTTP server,
built on the warm artifacts of the
:class:`~repro.serve.registry.ModelRegistry`.  Its :class:`MicroBatcher`
never delays a request for an idle ``(model, target column)``: it runs at
once.  Requests that arrive while that key's apply is running queue behind
it, and the queue then runs as **one** apply call: its leader concatenates
every queued source batch, runs a single (optionally sharded)
``join_values`` over the union, and splits the joined pairs back per
request by source-row offset.  The split preserves transformation-major,
row-ascending order and first-match attribution, so every coalesced
response is byte-identical to the response the request would have received
alone — the equivalence tests assert exactly that.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from repro.join.joiner import JoinResult
from repro.parallel.errors import DeadlineExceededError as CoreDeadlineExceededError
from repro.parallel.errors import ShardError, ShardTimeoutError
from repro.serve.breaker import (
    DEFAULT_COOLDOWN_S,
    DEFAULT_FAILURE_THRESHOLD,
    CircuitBreaker,
)
from repro.serve.errors import DeadlineExceededError, ModelLoadError
from repro.serve.registry import ModelRegistry

#: Duplicated from :mod:`repro.testing.faults` so the zero-cost guard below
#: needs no import when injection is off (same pattern as the executor).
_FAULT_ENV = "REPRO_FAULT_INJECT"

#: Most requests one micro-batch takes off a key's queue.
MAX_BATCH_SIZE = 32


def _maybe_inject(site: str, deadline: float | None) -> None:
    """Consult the serve-scoped fault hook (near-zero cost when unset)."""
    if os.environ.get(_FAULT_ENV):
        from repro.testing.faults import maybe_inject_serve  # noqa: PLC0415

        maybe_inject_serve(site, deadline=deadline)


@dataclass
class ServeResponse:
    """Everything one served join request produced.

    ``pairs``/``matched_by`` mirror :class:`~repro.join.joiner.JoinResult`
    (``matched_by`` as display strings, aligned with ``pairs``); ``warm``
    says whether both compiled artifacts (joiner and target index) were
    cache hits — a warm request skips every build; ``coalesced`` is how
    many concurrent requests shared the underlying apply call (1 = ran
    alone).
    """

    model: str
    pairs: list[tuple[int, int]]
    matched_by: list[str]
    warm: bool
    coalesced: int
    elapsed_s: float

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    def to_payload(self) -> dict:
        """The JSON body of a ``POST /join/<model>`` response."""
        return {
            "model": self.model,
            "num_pairs": self.num_pairs,
            "pairs": [list(pair) for pair in self.pairs],
            "matched_by": self.matched_by,
            "warm": self.warm,
            "coalesced": self.coalesced,
            "elapsed_s": self.elapsed_s,
        }


class _PendingRequest:
    """One caller's slot in a micro-batch.

    ``deadline`` is the caller's own monotonic budget (``None`` =
    unbounded); the batch executes under the *loosest* member deadline and
    each member still times out individually on its own.  ``batch`` is set
    on a queued request when a finishing leader hands it the next batch to
    lead.
    """

    __slots__ = (
        "source_values",
        "target_values",
        "deadline",
        "event",
        "batch",
        "result",
        "error",
        "size",
    )

    def __init__(
        self,
        source_values: list[str],
        target_values: Sequence[str],
        deadline: float | None = None,
    ) -> None:
        self.source_values = source_values
        self.target_values = target_values
        self.deadline = deadline
        self.event = threading.Event()
        self.batch: list[_PendingRequest] | None = None
        self.result: tuple[JoinResult, bool] | None = None
        self.error: BaseException | None = None
        self.size = 1


class MicroBatcher:
    """Coalesce same-key requests that arrive while that key is busy.

    A request for an idle key executes at once, alone:
    ``execute(key, requests)`` returns one ``(result, warm)`` per request.
    While that execution runs, later requests for the same key queue.  When
    it finishes, its leader wakes its members and hands up to
    :data:`MAX_BATCH_SIZE` queued requests to the first of them, which leads
    that next batch; a leader never runs a later batch.  So batches form
    only behind a running batch, and nobody holds a batch open waiting for
    company.  An execution error propagates to every request of its batch.

    A queued request waits on its own event until its own deadline, then
    leaves the queue and raises, so a batch taken off the queue always has
    a live leader.  A key's state is dropped as soon as the key goes idle.
    """

    def __init__(self, execute) -> None:
        self._execute = execute
        # Busy keys only: each maps to the requests queued behind its
        # running batch.
        self._queues: dict = {}
        self._lock = threading.Lock()
        self._requests = 0
        self._batches = 0
        self._coalesced_requests = 0
        self._largest_batch = 0

    def submit(
        self,
        key,
        source_values: list[str],
        target_values: Sequence[str],
        *,
        deadline: float | None = None,
    ) -> tuple[JoinResult, bool, int]:
        """Run (or queue for) the batch for *key*; returns ``(result, warm, size)``.

        ``deadline`` is this caller's monotonic budget.  A request whose
        budget expires while it is queued, or while another leader executes
        its batch, stops waiting and raises the core
        :class:`~repro.parallel.errors.DeadlineExceededError` — its slot
        simply goes unread; the other members are unaffected.  A leader
        always returns its batch's outcome, late or not.
        """
        request = _PendingRequest(source_values, target_values, deadline)
        with self._lock:
            self._requests += 1
            queue = self._queues.get(key)
            if queue is None:
                self._queues[key] = []
                batch: list[_PendingRequest] | None = [request]
                self._count(batch)
            else:
                queue.append(request)
                batch = None
        if batch is None:
            batch = self._wait(key, request)
        if batch is not None:
            self._run(key, batch)
        if request.error is not None:
            raise request.error
        assert request.result is not None
        result, warm = request.result
        return result, warm, request.size

    def _wait(
        self, key, request: _PendingRequest
    ) -> list[_PendingRequest] | None:
        """Block a queued request until it is handed a batch to lead
        (returned) or its leader has delivered its outcome (``None``)."""
        if request.deadline is None:
            request.event.wait()
        elif not request.event.wait(
            max(request.deadline - time.monotonic(), 0.0)
        ):
            with self._lock:
                queue = self._queues.get(key)
                if queue is not None and request in queue:
                    queue.remove(request)
                batch = request.batch
            if batch is None:
                raise CoreDeadlineExceededError(
                    "request deadline expired waiting for the micro-batch result"
                )
            # Handed a batch between the timeout and the lock: its mates
            # depend on this request, so it leads late rather than not at all.
        # Drop the request -> batch -> request cycle before leading.
        batch, request.batch = request.batch, None
        return batch

    def _run(self, key, batch: list[_PendingRequest]) -> None:
        """Execute *batch* as its leader, hand the key on, wake the members."""
        following: list[_PendingRequest] | None = None
        try:
            results = self._execute(key, batch)
            if len(results) != len(batch):
                raise RuntimeError(
                    f"micro-batch execute returned {len(results)} results "
                    f"for {len(batch)} requests"
                )
            for queued, result in zip(batch, results):
                queued.result = result
                queued.size = len(batch)
        except BaseException as error:  # noqa: BLE001 - must wake the members
            for queued in batch:
                queued.error = error
        finally:
            with self._lock:
                queue = self._queues[key]
                if queue:
                    following = queue[:MAX_BATCH_SIZE]
                    del queue[:MAX_BATCH_SIZE]
                    following[0].batch = following
                    self._count(following)
                else:
                    del self._queues[key]
            for queued in batch:
                queued.event.set()
            if following is not None:
                following[0].event.set()

    def _count(self, batch: list[_PendingRequest]) -> None:
        """Record one formed batch (caller holds the lock)."""
        self._batches += 1
        if len(batch) > 1:
            self._coalesced_requests += len(batch)
        self._largest_batch = max(self._largest_batch, len(batch))

    def stats(self) -> dict:
        """Counters: requests, executed batches, coalesced requests, largest batch."""
        with self._lock:
            return {
                "requests": self._requests,
                "batches_executed": self._batches,
                "coalesced_requests": self._coalesced_requests,
                "largest_batch": self._largest_batch,
                "max_batch_size": MAX_BATCH_SIZE,
            }


class ServeEngine:
    """Registry-backed join serving with optional request coalescing.

    ``join()`` is the request path the HTTP server calls per
    ``POST /join/<model>``: resolve the model's warm joiner and the target
    column's warm index from the registry, and apply.  With micro-batching
    on, the requests that queue behind a running apply for the same
    ``(model, target column)`` share the next apply call.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        micro_batch: bool = True,
        breaker_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        breaker_cooldown_s: float = DEFAULT_COOLDOWN_S,
    ) -> None:
        CircuitBreaker.check_settings(
            failure_threshold=breaker_threshold, cooldown_s=breaker_cooldown_s
        )
        self._registry = registry
        self._micro_batch = micro_batch
        self._batcher = MicroBatcher(self._execute_batch)
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown_s = breaker_cooldown_s
        # Per-model breakers, created lazily on the first *countable*
        # failure — a stream of 404s for made-up names must not grow this
        # map (nor can a client open a breaker with them: only typed
        # model/apply failures count).
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()

    @property
    def registry(self) -> ModelRegistry:
        """The backing model registry."""
        return self._registry

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def join(
        self,
        name: str,
        source_values: Sequence[str],
        target_values: Sequence[str],
        *,
        deadline: float | None = None,
    ) -> ServeResponse:
        """Serve one join request; byte-identical to the offline apply path.

        ``deadline`` (monotonic) bounds the whole request — the wait behind
        a running batch, apply, and split — surfacing as the serve-layer
        :class:`~repro.serve.errors.DeadlineExceededError` (504).  The
        model's circuit breaker gates entry
        (:class:`~repro.serve.errors.CircuitOpenError` when open) and is
        fed the typed outcome.
        """
        breaker = self._breakers.get(name)
        if breaker is not None:
            breaker.acquire()
        try:
            response = self._join_once(name, source_values, target_values, deadline)
        except BaseException as error:  # noqa: BLE001 - typed remap + breaker
            mapped = self._map_failure(error, deadline)
            self._record_failure(name, breaker, mapped)
            if mapped is error:
                raise
            raise mapped from error
        if breaker is not None:
            breaker.record_success()
        return response

    def _join_once(
        self,
        name: str,
        source_values: Sequence[str],
        target_values: Sequence[str],
        deadline: float | None,
    ) -> ServeResponse:
        """The un-gated request path (breaker handling lives in ``join``)."""
        started = time.perf_counter()
        source_list = list(source_values)
        # One tuple serves as the batch key, the registry's index key and
        # the joined target column (``tuple()`` of it returns it unchanged).
        target_key = tuple(target_values)
        if self._micro_batch:
            # Coalescing is only sound for requests that join against the
            # same model *and* the same target column — the key says so.
            result, warm, size = self._batcher.submit(
                (name, target_key), source_list, target_key, deadline=deadline
            )
        else:
            request = _PendingRequest(source_list, target_key, deadline)
            (result, warm), = self._execute_batch((name, None), [request])
            size = 1
        if deadline is not None and time.monotonic() >= deadline:
            # The batch ran under the loosest member deadline; a stricter
            # member whose own budget lapsed meanwhile still gets the typed
            # 504, never a late response.
            raise DeadlineExceededError(
                "request deadline expired before the response was assembled"
            )
        # One label per distinct transformation, not one per pair.
        labels = {t: repr(t) for t in set(result.matched_by.values())}
        matched_by = [labels[result.matched_by[pair]] for pair in result.pairs]
        elapsed = time.perf_counter() - started
        return ServeResponse(
            model=name,
            pairs=list(result.pairs),
            matched_by=matched_by,
            warm=warm,
            coalesced=size,
            elapsed_s=elapsed,
        )

    # ------------------------------------------------------------------ #
    # Failure mapping and breaker bookkeeping
    # ------------------------------------------------------------------ #
    @staticmethod
    def _map_failure(error: BaseException, deadline: float | None) -> BaseException:
        """Remap core deadline cuts to the serve-layer 504 type.

        The cooperative deadline surfaces in three shapes: raised directly
        (serial paths, queue waits, batch-member timeouts), as the cause chained
        through a :class:`~repro.parallel.errors.ShardError` (a pool worker
        hit it), or as a :class:`~repro.parallel.errors.ShardTimeoutError`
        whose map timeout was the clamped request budget.  All three become
        :class:`~repro.serve.errors.DeadlineExceededError`; everything else
        passes through unchanged.
        """
        if isinstance(error, CoreDeadlineExceededError):
            return DeadlineExceededError(str(error))
        if isinstance(error, ShardError):
            cause = error.cause or error.__cause__
            seen: set[int] = set()
            while cause is not None and id(cause) not in seen:
                if isinstance(cause, CoreDeadlineExceededError):
                    return DeadlineExceededError(
                        f"request deadline expired inside the sharded apply: "
                        f"{error}"
                    )
                seen.add(id(cause))
                cause = getattr(cause, "cause", None) or cause.__cause__
            if (
                isinstance(error, ShardTimeoutError)
                and deadline is not None
                and time.monotonic() >= deadline
            ):
                return DeadlineExceededError(
                    f"request deadline expired waiting on the sharded apply: "
                    f"{error}"
                )
        return error

    def _record_failure(
        self, name: str, breaker: CircuitBreaker | None, error: BaseException
    ) -> None:
        """Feed one failed request's typed outcome to the model's breaker.

        Countable failures are the model/apply taxonomy — a corrupt reload,
        a shard failure, an expired deadline, an injected fault.  Client
        mistakes (bad request, unknown model) are *aborts*: they say
        nothing about the model's health and must not trip (or hold open)
        the breaker.
        """
        if breaker is None and not self._countable(error):
            return
        if breaker is None:
            with self._breaker_lock:
                breaker = self._breakers.get(name)
                if breaker is None:
                    breaker = self._breakers[name] = CircuitBreaker(
                        name,
                        failure_threshold=self._breaker_threshold,
                        cooldown_s=self._breaker_cooldown_s,
                        file_key_fn=lambda: self._registry.peek_file_key(name),
                    )
        if self._countable(error):
            breaker.record_failure()
        else:
            breaker.record_abort()

    @staticmethod
    def _countable(error: BaseException) -> bool:
        if isinstance(
            error,
            (
                ModelLoadError,
                ShardError,
                DeadlineExceededError,
                CoreDeadlineExceededError,
            ),
        ):
            return True
        # Injected serve faults count like the real failures they stand in
        # for; lazy import keeps the testing module out of the hot path.
        if type(error).__name__ == "FaultInjected":
            from repro.testing.faults import FaultInjected  # noqa: PLC0415

            return isinstance(error, FaultInjected)
        return False

    def stats(self) -> dict:
        """Registry cache, micro-batcher, and circuit-breaker counters."""
        with self._breaker_lock:
            breakers = {
                name: breaker.snapshot()
                for name, breaker in self._breakers.items()
            }
        return {
            "registry": self._registry.stats(),
            "micro_batcher": self._batcher.stats(),
            "breakers": breakers,
        }

    # ------------------------------------------------------------------ #
    # Batch execution (leader side)
    # ------------------------------------------------------------------ #
    def _execute_batch(
        self, key: tuple, requests: list[_PendingRequest]
    ) -> list[tuple[JoinResult, bool]]:
        """One apply call for a closed micro-batch; split results per request.

        Every request of the batch shares the model (``key[0]``) and the
        target values (coalescing keyed on the values), so one target
        index probe and one ``join_values`` over the concatenated source
        rows serve them all.  The concatenated join emits pairs
        transformation-major with source rows ascending — filtering a
        request's row range out of that stream preserves both orders and
        the first-match attribution, hence the per-request results equal
        what each request would have computed alone.

        The shared apply runs under the *loosest* member deadline (``None``
        if any member is unbounded): a strict member must not starve the
        batch mates who still have budget — it times out individually in
        :meth:`MicroBatcher.submit` (members) or via the post-hoc check
        in :meth:`join` (the leader) instead.
        """
        name = key[0]
        deadline: float | None = None
        member_deadlines = [request.deadline for request in requests]
        if all(d is not None for d in member_deadlines):
            deadline = max(member_deadlines)
        _maybe_inject("engine", deadline)
        joiner, _entry, joiner_hit = self._registry.joiner_for(
            name, deadline=deadline
        )
        target_values = requests[0].target_values
        index, index_hit = self._registry.target_index_for(joiner, target_values)
        warm = joiner_hit and index_hit
        if len(requests) == 1:
            result = joiner.join_values(
                requests[0].source_values,
                target_values,
                target_index=index,
                deadline=deadline,
            )
            return [(result, warm)]
        offsets: list[int] = []
        concatenated: list[str] = []
        for request in requests:
            offsets.append(len(concatenated))
            concatenated.extend(request.source_values)
        combined = joiner.join_values(
            concatenated, target_values, target_index=index, deadline=deadline
        )
        split: list[JoinResult] = [JoinResult() for _ in requests]
        for pair in combined.pairs:
            slot = bisect_right(offsets, pair[0]) - 1
            local = (pair[0] - offsets[slot], pair[1])
            split[slot].pairs.append(local)
            split[slot].matched_by[local] = combined.matched_by[pair]
        return [(result, warm) for result in split]


__all__ = [
    "MicroBatcher",
    "ServeEngine",
    "ServeResponse",
]
