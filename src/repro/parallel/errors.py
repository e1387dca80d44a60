"""The typed error taxonomy of the fault-tolerant sharded executor.

Before this layer existed, a failure inside a worker process surfaced as
whatever the pool happened to raise — a bare ``multiprocessing.TimeoutError``
with no context, a re-raised worker exception with no shard attribution, or
(for a hard worker death) an indefinite hang.  Every failure the
:class:`~repro.parallel.executor.ShardedExecutor` can observe now maps to one
of three exception types, each carrying the shard range it happened on, how
many pool attempts were made, and the underlying cause:

* :class:`ShardError` — the base type: a shard's worker function raised, and
  retries plus (when enabled) the serial inline fallback could not produce a
  result.  ``cause`` holds the original exception.
* :class:`WorkerCrashError` — a pool worker process died before the shard
  was delivered (an ``os._exit``, a segfault, an OOM kill, reported by the
  pool as ``BrokenProcessPool``).  The task is lost, not failed — there is
  no worker traceback to attach.
* :class:`ShardTimeoutError` — the submission-time deadline derived from
  ``task_timeout`` expired before the shard's result arrived.  Replaces the
  bare ``multiprocessing.TimeoutError`` the executor used to leak.

All three derive from :class:`ShardError`, so callers that only want "the
sharded run failed" catch one type; the CLI maps any of them to its one-line
stderr + exit-code contract.
"""

from __future__ import annotations


class DeadlineExceededError(RuntimeError):
    """A cooperative wall-clock deadline expired inside a batched walk.

    Raised by the apply walker's blocked deadline checks (see
    :func:`repro.model.apply.transform_trie_rows`) when the caller-supplied
    ``time.monotonic()`` deadline passes — inside a pool worker or in the
    serial path alike.  Unlike :class:`ShardTimeoutError` (the *parent*
    noticing a shard missed the map deadline), this is the *worker itself*
    stopping at the next block boundary instead of burning CPU on rows
    nobody will wait for.  Deliberately **not** a :class:`ShardError`: it is
    raised by serial code paths too, and it is deterministic — the executor
    never retries it (the deadline cannot un-expire).

    The serving layer maps it (directly, or as the cause of a
    :class:`ShardError`) to its own 504 taxonomy; see
    :mod:`repro.serve.errors`.
    """


class ShardError(RuntimeError):
    """A shard could not be computed, in the pool or inline.

    Attributes
    ----------
    shard:
        The ``(start, stop)`` row range of the failed shard (``None`` when
        the failure was not attributable to one shard).
    attempts:
        How many pool executions were attempted before giving up (retries
        included; 0 when the failure preceded any execution).
    cause:
        The underlying exception, when one exists.  Also chained as
        ``__cause__`` wherever the raise site has it.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: tuple[int, int] | None = None,
        attempts: int = 0,
        cause: BaseException | None = None,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.attempts = attempts
        self.cause = cause


class WorkerCrashError(ShardError):
    """A pool worker process died before the shard was delivered.

    ``concurrent.futures`` reports a worker death as ``BrokenProcessPool``
    for every shard the pool had not delivered, not only the one the dead
    worker held, so each of them gets this error and the executor retries
    them all on a fresh pool.  The task is lost rather than failed — there
    is no worker traceback to chain.
    """


class ShardTimeoutError(ShardError):
    """The submission-time deadline expired before a shard completed.

    The deadline is computed once when the shards are submitted
    (``monotonic() + task_timeout``) and every wait consumes the *remaining*
    time, so ``task_timeout`` bounds the whole ``map_shards`` call — it does
    not restart per shard at collection time.
    """


__all__ = [
    "DeadlineExceededError",
    "ShardError",
    "ShardTimeoutError",
    "WorkerCrashError",
]
