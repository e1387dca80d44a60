"""The serving apply engine: streaming batches and micro-batched requests.

Two serving shapes live here, both built on the warm artifacts of the
:class:`~repro.serve.registry.ModelRegistry`:

* :func:`apply_iter` — the streaming form of the PR 5 apply path: one
  compiled applier (one trie build) reused across an iterator of batches,
  with the joiner's most-recent-target index cache making repeated targets
  free.  This is the library-level API; it needs no registry or server.
* :class:`ServeEngine` — the request/response form behind the HTTP server.
  Its :class:`MicroBatcher` coalesces concurrent requests for the same
  ``(model, target column)`` into **one** apply call: the leader request
  briefly holds the batch open, concatenates every queued source batch,
  runs a single (optionally sharded) ``join_values`` over the union, and
  splits the joined pairs back per request by source-row offset.  The split
  preserves transformation-major, row-ascending order and first-match
  attribution, so every coalesced response is byte-identical to the
  response the request would have received alone — the equivalence tests
  assert exactly that.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.join.joiner import JoinResult, TransformationJoiner, target_values_key
from repro.model.artifact import TransformationModel
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


def _maybe_inject(site: str, deadline: float | None) -> None:
    """Consult the serve-scoped fault hook (near-zero cost when unset)."""
    if os.environ.get(_FAULT_ENV):
        from repro.testing.faults import maybe_inject_serve  # noqa: PLC0415

        maybe_inject_serve(site, deadline=deadline)


def apply_iter(
    model: TransformationModel | TransformationJoiner,
    batches: Iterable[tuple[Sequence[str], Sequence[str]]],
    *,
    num_workers: int | None = None,
    min_rows_per_worker: int | None = None,
) -> Iterator[JoinResult]:
    """Stream ``(source_values, target_values)`` batches through one applier.

    The model's transformation set is compiled into the packed trie exactly
    once, before the first batch; every subsequent batch reuses it.  A
    repeated target column (the common stream shape: many source batches
    against one target) also reuses the previous packed
    :class:`~repro.matching.index.ValueIndex` via the joiner's
    most-recent-target cache.  Results are yielded in input order and are
    identical to calling ``join_values`` on a fresh joiner per batch.
    """
    if isinstance(model, TransformationJoiner):
        joiner = model
    else:
        joiner = model.joiner(
            num_workers=num_workers, min_rows_per_worker=min_rows_per_worker
        )
    for source_values, batch_target_values in batches:
        yield joiner.join_values(source_values, batch_target_values)


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
    each member still times out individually on its own.
    """

    __slots__ = (
        "source_values",
        "target_values",
        "deadline",
        "event",
        "result",
        "error",
        "size",
    )

    def __init__(
        self,
        source_values: list[str],
        target_values: list[str],
        deadline: float | None = None,
    ) -> None:
        self.source_values = source_values
        self.target_values = target_values
        self.deadline = deadline
        self.event = threading.Event()
        self.result: tuple[JoinResult, bool] | None = None
        self.error: BaseException | None = None
        self.size = 1


class _Batch:
    __slots__ = ("requests", "closed")

    def __init__(self, first: _PendingRequest) -> None:
        self.requests = [first]
        self.closed = False


class MicroBatcher:
    """Coalesce concurrent same-key requests into one execution.

    The first request for a key becomes the batch *leader*: it keeps the
    batch open for ``max_wait_s`` (concurrent arrivals for the same key
    append themselves), then closes it and runs *execute* once over every
    queued request — ``execute(key, requests)`` returns one
    ``(result, warm)`` per request.  Followers block on their slot's event
    and receive their share; an execution error propagates to every request
    of the batch.

    ``max_wait_s`` is the latency the leader donates to throughput; 0
    still coalesces whatever arrived while the leader was scheduled, it
    just doesn't wait for more.  ``max_batch_size`` caps a batch — the
    overflow request starts a fresh batch with its own leader.
    """

    def __init__(
        self,
        execute,
        *,
        max_batch_size: int = 32,
        max_wait_s: float = 0.002,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self._execute = execute
        self._max_batch_size = max_batch_size
        self._max_wait_s = max_wait_s
        self._pending: dict = {}
        self._lock = threading.Lock()
        self._requests = 0
        self._batches = 0
        self._coalesced_requests = 0
        self._largest_batch = 0

    def submit(
        self,
        key,
        source_values: list[str],
        target_values: list[str],
        *,
        deadline: float | None = None,
    ) -> tuple[JoinResult, bool, int]:
        """Run (or join) the batch for *key*; returns ``(result, warm, size)``.

        ``deadline`` is this caller's monotonic budget.  A follower whose
        budget expires while the leader is still executing stops waiting
        and raises the core
        :class:`~repro.parallel.errors.DeadlineExceededError` — its slot
        simply goes unread; the leader and other members are unaffected.
        """
        request = _PendingRequest(source_values, target_values, deadline)
        with self._lock:
            self._requests += 1
            batch = self._pending.get(key)
            if (
                batch is not None
                and not batch.closed
                and len(batch.requests) < self._max_batch_size
            ):
                batch.requests.append(request)
                leader = False
            else:
                batch = _Batch(request)
                self._pending[key] = batch
                leader = True
        if leader:
            if self._max_wait_s > 0:
                time.sleep(self._max_wait_s)
            with self._lock:
                batch.closed = True
                if self._pending.get(key) is batch:
                    del self._pending[key]
                requests = list(batch.requests)
                self._batches += 1
                if len(requests) > 1:
                    self._coalesced_requests += len(requests)
                self._largest_batch = max(self._largest_batch, len(requests))
            try:
                results = self._execute(key, requests)
                if len(results) != len(requests):
                    raise RuntimeError(
                        f"micro-batch execute returned {len(results)} results "
                        f"for {len(requests)} requests"
                    )
                for queued, result in zip(requests, results):
                    queued.result = result
                    queued.size = len(requests)
            except BaseException as error:  # noqa: BLE001 - must wake followers
                for queued in requests:
                    queued.error = error
            finally:
                for queued in requests:
                    queued.event.set()
        elif request.deadline is None:
            request.event.wait()
        elif not request.event.wait(
            max(request.deadline - time.monotonic(), 0.0)
        ):
            raise CoreDeadlineExceededError(
                "request deadline expired waiting for the micro-batch result"
            )
        if request.error is not None:
            raise request.error
        assert request.result is not None
        result, warm = request.result
        return result, warm, request.size

    def stats(self) -> dict:
        """Counters: requests, executed batches, coalesced requests, largest batch."""
        with self._lock:
            return {
                "requests": self._requests,
                "batches_executed": self._batches,
                "coalesced_requests": self._coalesced_requests,
                "largest_batch": self._largest_batch,
                "max_batch_size": self._max_batch_size,
                "max_wait_s": self._max_wait_s,
            }


class ServeEngine:
    """Registry-backed join serving with optional request coalescing.

    ``join()`` is the request path the HTTP server calls per
    ``POST /join/<model>``: resolve the model's warm joiner and the target
    column's warm index from the registry, apply, and (when micro-batching
    is on) share that apply with every concurrent request for the same
    ``(model, target column)``.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        micro_batch: bool = True,
        max_batch_size: int = 32,
        max_batch_wait_s: float = 0.002,
        breaker_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        breaker_cooldown_s: float = DEFAULT_COOLDOWN_S,
    ) -> None:
        self._registry = registry
        self._micro_batch = micro_batch
        self._batcher = MicroBatcher(
            self._execute_batch,
            max_batch_size=max_batch_size,
            max_wait_s=max_batch_wait_s,
        )
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

        ``deadline`` (monotonic) bounds the whole request — batch wait,
        apply, and split — surfacing as the serve-layer
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
        target_list = list(target_values)
        if self._micro_batch:
            # Coalescing is only sound for requests that join against the
            # same model *and* the same target column — the key says so.
            key = (name, target_values_key(target_list))
            result, warm, size = self._batcher.submit(
                key, source_list, target_list, deadline=deadline
            )
        else:
            request = _PendingRequest(source_list, target_list, deadline)
            (result, warm), = self._execute_batch((name, None), [request])
            size = 1
        if deadline is not None and time.monotonic() >= deadline:
            # The batch ran under the loosest member deadline; a stricter
            # member whose own budget lapsed meanwhile still gets the typed
            # 504, never a late response.
            raise DeadlineExceededError(
                "request deadline expired before the response was assembled"
            )
        elapsed = time.perf_counter() - started
        return ServeResponse(
            model=name,
            pairs=list(result.pairs),
            matched_by=[repr(result.matched_by[pair]) for pair in result.pairs],
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
        (serial paths, queue waits, follower timeouts), as the cause chained
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

    def apply_iter(
        self,
        name: str,
        batches: Iterable[tuple[Sequence[str], Sequence[str]]],
    ) -> Iterator[JoinResult]:
        """Stream batches through *name*'s warm joiner (one trie compile).

        The registry's target-index cache serves every batch, so a stream
        alternating between a handful of target columns rebuilds nothing.
        """
        joiner, _entry, _hit = self._registry.joiner_for(name)
        for source_values, batch_targets in batches:
            index, _ = self._registry.target_index_for(joiner, batch_targets)
            yield joiner.join_values(
                source_values, batch_targets, target_index=index
            )

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
        target values (coalescing keyed on their digest), so one target
        index probe and one ``join_values`` over the concatenated source
        rows serve them all.  The concatenated join emits pairs
        transformation-major with source rows ascending — filtering a
        request's row range out of that stream preserves both orders and
        the first-match attribution, hence the per-request results equal
        what each request would have computed alone.

        The shared apply runs under the *loosest* member deadline (``None``
        if any member is unbounded): a strict member must not starve the
        batch mates who still have budget — it times out individually in
        :meth:`MicroBatcher.submit` (followers) or via the post-hoc check
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
    "apply_iter",
]
