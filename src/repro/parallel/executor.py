"""The shared-state process executor behind the sharded stages.

Batched coverage, setsim matching and the apply walk are embarrassingly
parallel over rows, but the read-only structures they walk (the frozen
unit-prefix trie, the setsim prefix index) are large, and shipping them
with every task would drown the win in serialization.  The
:class:`ShardedExecutor` therefore shares that state with the pool exactly
once per run:

* **fork** (the default wherever available): the state is handed to the pool
  initializer *before* the children are forked, so every worker inherits the
  parent's objects through copy-on-write memory — nothing is pickled at all;
* **spawn / forkserver** (the fallback for platforms without fork): the same
  initializer arguments are pickled once per worker process at pool start-up,
  never per task.

Tasks themselves are tiny ``(start, stop)`` row ranges.  The shard plan is a
guided, decreasing schedule (early shards large, tail shards small) and the
pool's shared task queue hands shards to whichever worker goes idle first, so
a slow shard steals less total wall-clock than static splitting would.
Results are collected in submission order, which keeps every sharded engine's
merge deterministic.

The executor is deliberately run-scoped: ``with ShardedExecutor(state, ...)``
forks the pool, runs the shards, and tears the pool down.  Workers never
outlive the run, so mutable caches built inside a worker can never leak into
a later computation.  An executor is also single-use: once exited it is
closed, and both re-entering and mapping raise instead of silently running
inline.

**Fault tolerance.**  ``map_shards`` no longer assumes a healthy pool.  A
shard that fails — its worker function raised, its worker process died
(detected by checking each shard's announced worker pid against the pool's
live workers while the result is pending), or the submission-time deadline
expired — is retried in the pool
up to ``max_shard_retries`` times with exponential backoff, and when the
pool cannot produce it the shard is re-run *serially inline* in the parent
process against the same shared state.  Because every sharded engine is
deterministic per row range, the inline re-run yields exactly the bytes the
pool would have, so a flaky pool still produces the byte-identical merged
result.  When the fallback is disabled (``serial_fallback=False``) the
failure surfaces as the typed taxonomy of :mod:`repro.parallel.errors`
(:class:`ShardError` / :class:`WorkerCrashError` /
:class:`ShardTimeoutError`) instead of a bare pool exception.
``task_timeout`` is a *deadline for the whole map*: it is converted to a
monotonic deadline once at submission, and every wait consumes the
remaining time.

Shard dispatch runs through :func:`_run_shard`, which consults the
deterministic fault-injection hook of :mod:`repro.testing.faults` when
``REPRO_FAULT_INJECT`` is set — the chaos tests use it to kill, hang, or
raise inside real workers and assert the recovery paths above end-to-end.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Callable, Sequence
from typing import Any

from repro.parallel.errors import (
    DeadlineExceededError,
    ShardError,
    ShardTimeoutError,
    WorkerCrashError,
)

#: Distinct "not installed" marker, so that None remains a valid shared state.
_STATE_NOT_INSTALLED: Any = object()

#: Read-only state installed into each worker process by the pool initializer.
_WORKER_STATE: Any = _STATE_NOT_INSTALLED

#: True only in pool worker processes (set by the pool initializer, which
#: runs in the children).  The parent's inline paths leave it False — the
#: fault-injection hook uses the distinction to target pool workers only,
#: so the serial fallback provably recovers.
_IN_POOL_WORKER = False

#: In pool workers: the queue on which :func:`_run_shard` announces
#: ``(shard_index, pid)`` before executing a shard.  The parent uses these
#: start events to attribute a dead worker's pid to exactly the shard it
#: held — the one task a ``multiprocessing.Pool`` silently loses on a worker
#: death.  ``None`` in the parent and in inline runs.
_START_EVENTS: Any = None

#: Environment variable of :mod:`repro.testing.faults`, duplicated here so
#: the zero-cost guard in :func:`_run_shard` needs no import when unset.
_FAULT_ENV = "REPRO_FAULT_INJECT"


def _install_worker_state(state: Any) -> None:
    """Stash the shared read-only state (worker process or inline run)."""
    global _WORKER_STATE
    _WORKER_STATE = state


def _pool_initializer(state: Any, start_events: Any) -> None:
    """Pool initializer: install the state and mark this process a worker."""
    global _IN_POOL_WORKER, _START_EVENTS
    _IN_POOL_WORKER = True
    _START_EVENTS = start_events
    _install_worker_state(state)


def _run_shard(worker: Callable[[int, int], Any], shard_index: int, start: int, stop: int) -> Any:
    """Dispatch one shard to *worker*, consulting the fault-injection hook.

    This is the single entry point every shard execution goes through — pool
    tasks, inline single-worker runs, and serial fallback re-runs alike — so
    an injected fault fires at exactly the same point a real failure would.
    In a pool worker the shard is announced on the start-event queue first:
    a crash after this point (injected or real) leaves the parent a record
    of which shard died with the worker.  The fault hook costs one
    environment lookup when unset.
    """
    if _START_EVENTS is not None:
        _START_EVENTS.put((shard_index, os.getpid()))
    if os.environ.get(_FAULT_ENV):
        from repro.testing.faults import maybe_inject

        maybe_inject(shard_index, in_pool_worker=_IN_POOL_WORKER)
    return worker(start, stop)


def worker_state() -> Any:
    """The shared state of the current worker process.

    Raises ``RuntimeError`` when called outside a :class:`ShardedExecutor`
    worker (i.e. before the pool initializer ran).
    """
    if _WORKER_STATE is _STATE_NOT_INSTALLED:
        raise RuntimeError(
            "no shared worker state installed; worker functions must run "
            "inside a ShardedExecutor pool"
        )
    return _WORKER_STATE


def resolve_num_workers(num_workers: int) -> int:
    """Resolve a ``num_workers`` knob to an actual worker count.

    ``0`` means "all cores" (``os.cpu_count()``); positive values are taken
    literally; negative values are rejected.
    """
    if num_workers < 0:
        raise ValueError(f"num_workers must be >= 0, got {num_workers}")
    if num_workers == 0:
        return os.cpu_count() or 1
    return num_workers


def env_default_workers(default: int = 1) -> int:
    """The default worker count, overridable via ``REPRO_NUM_WORKERS``.

    The configuration dataclasses use this as their ``num_workers`` default
    factory, so an entire run (CLI, tests, benchmarks) can be switched to a
    sharded configuration without touching call sites — CI uses it to run the
    tier-1 suite with two workers.  Unset or empty means *default* (serial);
    the value follows :func:`resolve_num_workers` semantics (0 = all cores).
    """
    value = os.environ.get("REPRO_NUM_WORKERS", "").strip()
    if not value:
        return default
    try:
        workers = int(value)
    except ValueError:
        raise ValueError(
            f"REPRO_NUM_WORKERS must be an integer, got {value!r}"
        ) from None
    if workers < 0:
        raise ValueError(f"REPRO_NUM_WORKERS must be >= 0, got {workers}")
    return workers


#: Default small-input threshold: a worker must have at least this many items
#: to be worth forking.  The value is deliberately coarse — at the measured
#: ~1 ms/row of the batched coverage walk it corresponds to ~0.25 s of work
#: per worker, comfortably above pool start-up plus dispatch overhead.
DEFAULT_MIN_ITEMS_PER_WORKER = 256


def env_min_items_per_worker(default: int = DEFAULT_MIN_ITEMS_PER_WORKER) -> int:
    """The small-input threshold, overridable via ``REPRO_MIN_ROWS_PER_WORKER``.

    ``0`` disables the small-input fast path entirely (the equivalence tests
    and the sharded CI job use it so tiny inputs still exercise real pools).
    """
    value = os.environ.get("REPRO_MIN_ROWS_PER_WORKER", "").strip()
    if not value:
        return default
    try:
        threshold = int(value)
    except ValueError:
        raise ValueError(
            f"REPRO_MIN_ROWS_PER_WORKER must be an integer, got {value!r}"
        ) from None
    if threshold < 0:
        raise ValueError(
            f"REPRO_MIN_ROWS_PER_WORKER must be >= 0, got {threshold}"
        )
    return threshold


def tuned_num_workers(
    num_workers: int,
    num_items: int,
    *,
    min_items_per_worker: int | None = None,
) -> int:
    """Resolve a worker knob against the actual input size.

    This is the small-input fast path of the sharded engines: forking a pool
    costs milliseconds and every shard adds dispatch overhead, so when the
    work per worker is too small (or the host has a single core, where a
    pool can only add overhead) the request is scaled down — to fewer
    workers, or to 1, meaning the caller takes its serial path and no pool
    is spawned.  Purely a scheduling decision: results are identical for
    every worker count.

    ``min_items_per_worker=None`` reads :func:`env_min_items_per_worker`
    (``REPRO_MIN_ROWS_PER_WORKER``, else
    :data:`DEFAULT_MIN_ITEMS_PER_WORKER`); ``0`` disables the tuning and
    returns the resolved worker count clamped to ``num_items`` only;
    negative thresholds are rejected.
    """
    if min_items_per_worker is not None and min_items_per_worker < 0:
        raise ValueError(
            f"min_items_per_worker must be >= 0, got {min_items_per_worker}"
        )
    workers = min(resolve_num_workers(num_workers), max(num_items, 1))
    if workers <= 1:
        return workers
    if min_items_per_worker is None:
        min_items_per_worker = env_min_items_per_worker()
    if min_items_per_worker == 0:
        return workers
    if (os.cpu_count() or 1) <= 1:
        return 1
    if num_items < workers * min_items_per_worker:
        workers = max(1, num_items // min_items_per_worker)
    return workers


def default_start_method() -> str:
    """The multiprocessing start method sharded engines use.

    Prefers ``fork`` (state is shared copy-on-write, pool start-up is
    milliseconds); falls back to ``spawn`` elsewhere.  The environment
    variable ``REPRO_START_METHOD`` forces a specific method — the
    equivalence tests use it to exercise the pickle-once fallback on
    platforms whose default is fork.
    """
    override = os.environ.get("REPRO_START_METHOD", "").strip()
    available = multiprocessing.get_all_start_methods()
    if override:
        if override not in available:
            raise ValueError(
                f"REPRO_START_METHOD={override!r} is not available on this "
                f"platform; choices: {available}"
            )
        return override
    return "fork" if "fork" in available else "spawn"


def shard_plan(num_items: int, num_workers: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` shards covering ``range(num_items)``.

    A guided, decreasing schedule: each shard takes ``remaining / (2 *
    workers)`` items (at least one), so early shards are large (low dispatch
    overhead) and the tail is fine-grained (good load balance when per-row
    cost is skewed).  Shards are contiguous, ascending and exhaustive — the
    plan only affects scheduling, never results.
    """
    if num_items < 0:
        raise ValueError(f"num_items must be >= 0, got {num_items}")
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    denominator = 2 * num_workers
    shards: list[tuple[int, int]] = []
    start = 0
    while start < num_items:
        remaining = num_items - start
        size = remaining // denominator
        if size < 1:
            size = 1
        shards.append((start, start + size))
        start += size
    return shards


#: Default number of *additional* pool attempts for a failed shard.
DEFAULT_MAX_SHARD_RETRIES = 2

#: Default base of the exponential retry backoff, in seconds.
DEFAULT_RETRY_BACKOFF_S = 0.05

#: How often the parent wakes to check the deadline and worker health while a
#: shard result is pending.  Coarse on purpose: one wake per interval per
#: *pending* shard is the entire polling cost of crash detection.
_POLL_INTERVAL_S = 0.05


class ShardedExecutor:
    """A run-scoped, fault-tolerant process pool sharing read-only state.

    Parameters
    ----------
    state:
        Arbitrary read-only object made available to worker functions via
        :func:`worker_state`.  Shared copy-on-write under fork; pickled once
        per worker under spawn/forkserver.
    num_workers:
        Pool size (already resolved; must be >= 1).  With exactly one
        worker no pool is spawned at all — the shards run inline in the
        current process (the small-input fast path; see
        :func:`tuned_num_workers`).
    start_method:
        Multiprocessing start method; defaults to
        :func:`default_start_method`.
    task_timeout:
        Optional wall-clock budget in seconds for one whole ``map_shards``
        call.  Converted to a monotonic deadline at submission; every wait
        consumes the remaining time, and expiry surfaces as
        :class:`~repro.parallel.errors.ShardTimeoutError` (or, with the
        serial fallback enabled, triggers an inline re-run of the shards the
        pool did not deliver in time).
    max_shard_retries:
        How many *additional* pool attempts a failed shard gets before the
        executor falls back (or raises).  Retries back off exponentially
        from ``retry_backoff_s``.  Timeouts are never retried — the deadline
        that expired for attempt one has expired for attempt two as well.
    retry_backoff_s:
        Base sleep before pool retry *n* (``retry_backoff_s * 2**(n-1)``),
        clamped to the remaining deadline.
    serial_fallback:
        When True (the default), a shard the pool cannot produce — retries
        exhausted, worker crashed, or deadline expired — is recomputed
        serially inline in the parent process, preserving the byte-identical
        merged result.  When False the typed error is raised instead.
    """

    def __init__(
        self,
        state: Any,
        *,
        num_workers: int,
        start_method: str | None = None,
        task_timeout: float | None = None,
        max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
        serial_fallback: bool = True,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        if max_shard_retries < 0:
            raise ValueError(
                f"max_shard_retries must be >= 0, got {max_shard_retries}"
            )
        if retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}"
            )
        self._state = state
        self._num_workers = num_workers
        self._start_method = start_method or default_start_method()
        self._task_timeout = task_timeout
        self._max_shard_retries = max_shard_retries
        self._retry_backoff_s = retry_backoff_s
        self._serial_fallback = serial_fallback
        self._pool: multiprocessing.pool.Pool | None = None
        self._entered = False
        self._closed = False
        self._degraded = False
        # Crash-attribution bookkeeping (pool path only): which worker pid
        # last started each shard, and which shards are known lost because
        # their worker vanished mid-task.
        self._start_events: Any = None
        self._started: dict[int, int] = {}
        self._lost_shards: set[int] = set()

    @property
    def num_workers(self) -> int:
        """The pool size."""
        return self._num_workers

    @property
    def start_method(self) -> str:
        """The start method the pool is created with."""
        return self._start_method

    @property
    def degraded(self) -> bool:
        """Whether any shard needed a retry or the serial fallback."""
        return self._degraded

    def __enter__(self) -> "ShardedExecutor":
        if self._closed:
            raise RuntimeError(
                "ShardedExecutor is single-use: this executor was already "
                "exited; construct a new one"
            )
        if self._entered:
            raise RuntimeError("ShardedExecutor is already entered")
        if self._num_workers == 1:
            # Small-input fast path: one worker needs no pool at all — the
            # shards run inline in this process, against the same shared
            # state, with identical results and none of the fork cost.
            self._entered = True
            return self
        context = multiprocessing.get_context(self._start_method)
        self._start_events = context.SimpleQueue()
        self._pool = context.Pool(
            processes=self._num_workers,
            initializer=_pool_initializer,
            initargs=(self._state, self._start_events),
        )
        self._entered = True
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self._entered = False
        self._closed = True
        pool = self._pool
        self._pool = None
        events = self._start_events
        self._start_events = None
        if pool is None:
            return
        if exc_type is None and not self._degraded:
            pool.close()
        else:
            # A failed run must not leave workers grinding through the
            # remaining shards — and after a degraded run a worker may still
            # be hung on an abandoned task, which close()+join() would wait
            # on forever.
            pool.terminate()
        pool.join()
        if events is not None:
            events.close()

    def map_shards(self, worker: Callable[[int, int], Any], num_items: int) -> list[Any]:
        """Run ``worker(start, stop)`` over every shard of ``range(num_items)``.

        All shards are submitted up front; idle workers pull the next shard
        from the shared queue (the work-stealing behaviour).  Results are
        returned in shard order regardless of completion order, so callers
        can merge deterministically.  With one worker the shards run inline
        (no pool was spawned); the shared state is installed for the
        duration so worker functions behave identically.

        ``task_timeout`` bounds this whole call via a single submission-time
        deadline.  Failed shards are retried and, with ``serial_fallback``
        enabled, recomputed inline — see the class docstring for the full
        recovery contract.
        """
        if self._closed:
            raise RuntimeError(
                "ShardedExecutor is single-use: this executor was already "
                "exited; construct a new one"
            )
        if not getattr(self, "_entered", False):
            raise RuntimeError("ShardedExecutor must be entered before use")
        shards = shard_plan(num_items, self._num_workers)
        deadline = (
            time.monotonic() + self._task_timeout
            if self._task_timeout is not None
            else None
        )
        if self._pool is None:
            return [
                self._run_inline(worker, index, shard)
                for index, shard in enumerate(shards)
            ]
        pending = [
            self._pool.apply_async(_run_shard, (worker, index, start, stop))
            for index, (start, stop) in enumerate(shards)
        ]
        return [
            self._collect_shard(worker, index, shard, result, deadline)
            for index, (shard, result) in enumerate(zip(shards, pending))
        ]

    # ------------------------------------------------------------------
    # Recovery machinery
    # ------------------------------------------------------------------

    def _worker_pids(self) -> tuple[int, ...]:
        """A stable snapshot of the pool's current worker pids.

        Reads the pool's private ``_pool`` process list — there is no public
        API for worker identity, and pid churn is the only signal a
        ``multiprocessing.Pool`` gives for a worker death: a killed worker is
        silently replaced by ``Pool._maintain_pool`` while its in-flight task
        is lost forever.  The getattr guard keeps this degrading to "no crash
        detection" rather than an AttributeError if the internals shift.
        """
        pool = self._pool
        processes = getattr(pool, "_pool", None) if pool is not None else None
        if not processes:
            return ()
        return tuple(sorted(p.pid for p in processes if p.pid is not None))

    def _note_worker_deaths(self) -> None:
        """Fold fresh start events into the lost-shard set.

        Drains the start-event queue (``shard index -> last starting pid``),
        then checks every announced pid against the pool's *live* workers.
        An announced pid that is no longer alive means its shard died with
        its worker — the lost-task condition a ``multiprocessing.Pool``
        never reports (``_maintain_pool`` quietly replaces the dead worker
        and the task simply never completes).  The check deliberately avoids
        diffing live-pid snapshots: workers that crash and are replaced
        *between* two polls would appear in neither snapshot and their
        shards would hang undetected.  A dead pid can also mark shards the
        worker already finished; the ``result.ready()`` guard at the
        consumer keeps those from being treated as lost.  Attribution is
        per-shard, so a crash on one shard cannot be charged to a different
        shard that is merely slow.
        """
        events = self._start_events
        if events is not None:
            while not events.empty():
                shard_index, pid = events.get()
                self._started[shard_index] = pid
        alive = set(self._worker_pids())
        if not alive:
            # Either the pool internals became unreadable (degrade to "no
            # crash detection") or every worker is momentarily dead awaiting
            # replacement — the next poll tick sees the replacements.
            return
        for shard_index, pid in self._started.items():
            if pid not in alive:
                self._lost_shards.add(shard_index)

    def _await_result(
        self,
        result: multiprocessing.pool.AsyncResult,
        index: int,
        shard: tuple[int, int],
        attempts: int,
        deadline: float | None,
    ) -> Any:
        """Wait for one pool result, policing the deadline and worker health.

        Wakes every ``_POLL_INTERVAL_S`` to (a) fail fast with
        :class:`ShardTimeoutError` once the submission-time deadline passes
        and (b) update the death bookkeeping — a shard attributed to a dead
        worker and still unready raises :class:`WorkerCrashError` instead of
        waiting forever on a task the pool has silently lost.
        """
        while True:
            wait = _POLL_INTERVAL_S
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardTimeoutError(
                        f"shard {shard[0]}:{shard[1]} missed the "
                        f"{self._task_timeout}s map deadline",
                        shard=shard,
                        attempts=attempts,
                    )
                wait = min(wait, remaining)
            try:
                return result.get(wait)
            except multiprocessing.TimeoutError:
                self._note_worker_deaths()
                if index in self._lost_shards and not result.ready():
                    # Consume the flag: the retry will re-announce itself.
                    self._lost_shards.discard(index)
                    raise WorkerCrashError(
                        f"a pool worker died holding shard "
                        f"{shard[0]}:{shard[1]}",
                        shard=shard,
                        attempts=attempts,
                    ) from None
                self._lost_shards.discard(index)

    def _collect_shard(
        self,
        worker: Callable[[int, int], Any],
        index: int,
        shard: tuple[int, int],
        result: multiprocessing.pool.AsyncResult,
        deadline: float | None,
    ) -> Any:
        """Produce one shard's result, whatever it takes.

        Attempt order: the original submission, then up to
        ``max_shard_retries`` fresh pool submissions with exponential
        backoff (crashes and worker exceptions only — an expired deadline is
        not retried), then the serial inline fallback.  With the fallback
        disabled, the last typed error is raised instead.
        """
        attempts = 0
        error: ShardError | None = None
        while True:
            attempts += 1
            try:
                return self._await_result(result, index, shard, attempts, deadline)
            except ShardTimeoutError as exc:
                self._degraded = True
                error = exc
                break
            except WorkerCrashError as exc:
                self._degraded = True
                error = exc
            except Exception as exc:  # noqa: BLE001 — worker exception, re-raised by get()
                self._degraded = True
                error = ShardError(
                    f"shard {shard[0]}:{shard[1]} worker raised "
                    f"{type(exc).__name__}: {exc}",
                    shard=shard,
                    attempts=attempts,
                    cause=exc,
                )
                error.__cause__ = exc
                if isinstance(exc, DeadlineExceededError):
                    # Deterministic, like a map timeout: the cooperative
                    # deadline the worker hit cannot un-expire, so retries
                    # (and backoff sleeps) would only delay the failure.
                    break
            if attempts > self._max_shard_retries:
                break
            backoff = self._retry_backoff_s * (2 ** (attempts - 1))
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                backoff = min(backoff, remaining)
            if backoff > 0:
                time.sleep(backoff)
            # Drop the dead attempt's attribution before resubmitting, or
            # the stale pid would mark the retry lost before its own start
            # event arrives.
            self._started.pop(index, None)
            result = self._pool.apply_async(
                _run_shard, (worker, index, shard[0], shard[1])
            )
        if self._serial_fallback:
            return self._run_inline(worker, index, shard, pool_error=error)
        assert error is not None
        raise error

    def _run_inline(
        self,
        worker: Callable[[int, int], Any],
        index: int,
        shard: tuple[int, int],
        pool_error: ShardError | None = None,
    ) -> Any:
        """Run one shard serially in this process against the shared state.

        Serves both the single-worker fast path and the fallback of last
        resort after pool recovery fails.  The previous ``_WORKER_STATE`` is
        always restored, so nested executors and outer inline runs are
        unaffected even when the worker raises.  An inline failure is
        terminal and surfaces as :class:`ShardError` carrying the pool
        attempt count and the inline exception as its cause.
        """
        global _WORKER_STATE
        previous = _WORKER_STATE
        _install_worker_state(self._state)
        try:
            return _run_shard(worker, index, shard[0], shard[1])
        except Exception as exc:
            attempts = pool_error.attempts if pool_error is not None else 0
            raise ShardError(
                f"shard {shard[0]}:{shard[1]} failed inline after "
                f"{attempts} pool attempt(s): {type(exc).__name__}: {exc}",
                shard=shard,
                attempts=attempts,
                cause=exc,
            ) from exc
        finally:
            _WORKER_STATE = previous


def map_sharded(
    state: Any,
    worker: Callable[[int, int], Any],
    num_items: int,
    *,
    num_workers: int,
    start_method: str | None = None,
    task_timeout: float | None = None,
    max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    serial_fallback: bool = True,
) -> list[Any]:
    """Pool up, map ``worker`` over the shards, tear the pool down.

    The one entry point of the sharded stages: each passes its read-only
    *state* (a plain tuple) and a module-level worker that unpacks it via
    :func:`worker_state`, then merges the in-order shard results itself.
    """
    executor = ShardedExecutor(
        state,
        num_workers=num_workers,
        start_method=start_method,
        task_timeout=task_timeout,
        max_shard_retries=max_shard_retries,
        retry_backoff_s=retry_backoff_s,
        serial_fallback=serial_fallback,
    )
    with executor:
        return executor.map_shards(worker, num_items)


__all__: Sequence[str] = (
    "DEFAULT_MAX_SHARD_RETRIES",
    "DEFAULT_MIN_ITEMS_PER_WORKER",
    "DEFAULT_RETRY_BACKOFF_S",
    "ShardError",
    "ShardTimeoutError",
    "ShardedExecutor",
    "WorkerCrashError",
    "default_start_method",
    "env_default_workers",
    "env_min_items_per_worker",
    "map_sharded",
    "resolve_num_workers",
    "shard_plan",
    "tuned_num_workers",
    "worker_state",
)
