"""The shared-state process executor behind the sharded stages.

Batched coverage, setsim matching and the apply walk are embarrassingly
parallel over rows, but the read-only structures they walk (the frozen
unit-prefix trie, the setsim prefix index) are large.  The
:class:`ShardedExecutor` therefore hands that state to the initializer of a
:class:`concurrent.futures.ProcessPoolExecutor`, so it reaches each worker
once: inherited copy-on-write under **fork** (the default wherever
available), pickled once per worker under **spawn / forkserver**.  Tasks
are tiny ``(start, stop)`` row ranges on a guided, decreasing schedule,
pulled from the pool's shared queue by whichever worker goes idle first;
results come back in shard order, so every engine's merge is deterministic.

The executor is run-scoped and single-use, so workers (and any cache built
inside one) never outlive the ``with ShardedExecutor(state, ...)`` block.

**Fault tolerance.**  ``map_shards`` runs in rounds.  A round submits every
shard not yet delivered and collects them in shard order, each wait taking
what is left of one map deadline (``task_timeout``, fixed at submission).
An undelivered shard becomes :class:`ShardError` when its worker raised
(the next round reuses the pool), :class:`WorkerCrashError` when a worker
process died — the pool then reports ``BrokenProcessPool`` for every shard
it had not delivered, and the next round starts a fresh pool — or
:class:`ShardTimeoutError` when the deadline expired, which terminates the
round's workers.  Failed shards get up to ``max_shard_retries`` further
rounds with exponential backoff, except after a timeout or a worker's own
:class:`DeadlineExceededError` (a deadline cannot un-expire).  Whatever the
pool still could not produce is re-run *serially inline* against the same
state; every sharded engine is deterministic per row range, so the merged
result stays byte-identical.  With ``serial_fallback=False`` the first
missing shard's typed error is raised instead.  The chaos tests inject
these faults through :func:`_run_shard` (see :mod:`repro.testing.faults`).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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

#: Environment variable of :mod:`repro.testing.faults`, duplicated here so
#: the zero-cost guard in :func:`_run_shard` needs no import when unset.
_FAULT_ENV = "REPRO_FAULT_INJECT"


def _pool_initializer(state: Any, fault_spec: str) -> None:
    """Pool initializer: install the state and mark this process a worker.

    *fault_spec* is the parent's ``REPRO_FAULT_INJECT`` (empty when unset,
    which the hook reads as unset).  The worker sets it itself because a
    forkserver worker inherits the environment of the fork server, which
    starts once per process and keeps whatever spec was set at that moment.
    """
    global _IN_POOL_WORKER, _WORKER_STATE
    _IN_POOL_WORKER = True
    _WORKER_STATE = state
    os.environ[_FAULT_ENV] = fault_spec


def _run_shard(worker: Callable[[int, int], Any], shard_index: int, start: int, stop: int) -> Any:
    """Dispatch one shard to *worker*, consulting the fault-injection hook.

    Every shard execution — pool task, inline run or fallback re-run — goes
    through here, so an injected fault fires where a real failure would.
    The hook costs one environment lookup when unset.
    """
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


def check_execution_settings(
    *,
    num_workers: int | None,
    min_rows_per_worker: int | None,
    task_timeout_s: float,
    shard_retries: int,
) -> None:
    """Raise ``ValueError`` when an execution setting is negative.

    Shared by ``DiscoveryConfig``, ``MatchingConfig`` and
    ``TransformationJoiner.check_settings``; ``None`` means the default.
    """
    if num_workers is not None and num_workers < 0:
        raise ValueError(f"num_workers must be >= 0, got {num_workers}")
    if min_rows_per_worker is not None and min_rows_per_worker < 0:
        raise ValueError(
            f"min_rows_per_worker must be >= 0, got {min_rows_per_worker}"
        )
    if task_timeout_s < 0:
        raise ValueError(f"task_timeout_s must be >= 0, got {task_timeout_s}")
    if shard_retries < 0:
        raise ValueError(f"shard_retries must be >= 0, got {shard_retries}")


def _env_count(name: str, default: int) -> int:
    """The integer >= 0 in environment variable *name* (unset: *default*)."""
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    try:
        count = int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < 0:
        raise ValueError(f"{name} must be >= 0, got {count}")
    return count


def env_default_workers(default: int = 1) -> int:
    """The default worker count, overridable via ``REPRO_NUM_WORKERS``.

    The configuration dataclasses use this as their ``num_workers`` default
    factory, so an entire run (CLI, tests, benchmarks) can be switched to a
    sharded configuration without touching call sites — CI uses it to run the
    tier-1 suite with two workers.  Unset or empty means *default* (serial);
    the value follows :func:`resolve_num_workers` semantics (0 = all cores).
    """
    return _env_count("REPRO_NUM_WORKERS", default)


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
    return _env_count("REPRO_MIN_ROWS_PER_WORKER", default)


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


#: Default number of *additional* pool rounds for a failed shard.
DEFAULT_MAX_SHARD_RETRIES = 2

#: Default base of the exponential retry backoff, in seconds.
DEFAULT_RETRY_BACKOFF_S = 0.05

_SINGLE_USE = "ShardedExecutor is single-use: construct a new one"


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Shut *pool* down now, killing its workers, hung ones included.

    ``shutdown()`` waits for running tasks, and a hung task never ends.
    Python 3.14 adds ``ProcessPoolExecutor.terminate_workers()``; until then
    the private ``_processes`` map is the one handle on the workers.  Called
    only after a deadline expired, after a worker died (the pool's own
    clean-up can fail in the race noted in ``ShardedExecutor._run_round``
    and leave workers behind), or when the ``with`` block exits on an
    exception — never on the healthy path.
    """
    for process in list((pool._processes or {}).values()):
        process.terminate()
    pool.shutdown(cancel_futures=True)


class ShardedExecutor:
    """A run-scoped, fault-tolerant process pool sharing read-only state.

    Parameters
    ----------
    state:
        Read-only object worker functions reach via :func:`worker_state`.
    num_workers:
        Pool size (already resolved; must be >= 1).  With exactly one
        worker no pool is started — the shards run inline in this process
        (the small-input fast path; see :func:`tuned_num_workers`).
    start_method:
        Defaults to :func:`default_start_method`.
    task_timeout:
        Optional wall-clock budget in seconds for one whole ``map_shards``
        call, fixed as a monotonic deadline at submission; expiry fails
        every shard not delivered with ``ShardTimeoutError``.
    max_shard_retries:
        How many *additional* pool rounds failed shards get before the
        executor falls back (or raises).  Timeouts are never retried.
    retry_backoff_s:
        Base sleep before pool retry *n* (``retry_backoff_s * 2**(n-1)``),
        clamped to the remaining deadline.
    serial_fallback:
        When True (the default), a shard the pool cannot produce is
        recomputed serially inline, preserving the byte-identical merged
        result.  When False the typed error is raised instead.
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
            raise ValueError(f"max_shard_retries must be >= 0, got {max_shard_retries}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        self._state = state
        self._num_workers = num_workers
        self._start_method = start_method or default_start_method()
        self._task_timeout = task_timeout
        self._max_shard_retries = max_shard_retries
        self._retry_backoff_s = retry_backoff_s
        self._serial_fallback = serial_fallback
        self._pool: ProcessPoolExecutor | None = None
        self._entered = False
        self._closed = False
        self._degraded = False

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
            raise RuntimeError(_SINGLE_USE)
        if self._entered:
            raise RuntimeError("ShardedExecutor is already entered")
        self._entered = True
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self._entered = False
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None and exc_type is None:
            pool.shutdown()
        elif pool is not None:
            # A failed run must not leave workers grinding through shards
            # nobody will collect.
            _terminate_workers(pool)

    def map_shards(self, worker: Callable[[int, int], Any], num_items: int) -> list[Any]:
        """Run ``worker(start, stop)`` over every shard of ``range(num_items)``.

        Results are returned in shard order regardless of completion order,
        so callers can merge deterministically.  With one worker the shards
        run inline against the same shared state.  Failed shards are
        retried and recovered as the module docstring describes.
        """
        if self._closed:
            raise RuntimeError(_SINGLE_USE)
        if not self._entered:
            raise RuntimeError("ShardedExecutor must be entered before use")
        shards = shard_plan(num_items, self._num_workers)
        if self._num_workers == 1:
            # Small-input fast path: one worker needs no pool at all.
            return [
                self._run_inline(worker, index, shard)
                for index, shard in enumerate(shards)
            ]
        timeout = self._task_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        results: dict[int, Any] = {}
        errors: dict[int, ShardError] = {}  # latest, per undelivered shard
        pending = list(range(len(shards)))
        attempts = 0
        while pending:
            attempts += 1
            self._run_round(
                worker, shards, pending, attempts, deadline, results, errors
            )
            if errors:
                self._degraded = True
            # Only crashes and worker exceptions get another round: the map
            # deadline, or one the worker itself hit, cannot un-expire.
            pending = [
                index
                for index in pending
                if index in errors
                and not isinstance(errors[index], ShardTimeoutError)
                and not isinstance(errors[index].cause, DeadlineExceededError)
            ]
            if not pending or attempts > self._max_shard_retries:
                break
            backoff = self._retry_backoff_s * 2 ** (attempts - 1)
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                backoff = min(backoff, remaining)
            time.sleep(backoff)
        for index in sorted(errors):
            if not self._serial_fallback:
                raise errors[index]
            results[index] = self._run_inline(
                worker, index, shards[index], errors[index].attempts
            )
        return [results[index] for index in range(len(shards))]

    def _run_round(
        self,
        worker: Callable[[int, int], Any],
        shards: list[tuple[int, int]],
        indices: list[int],
        attempts: int,
        deadline: float | None,
        results: dict[int, Any],
        errors: dict[int, ShardError],
    ) -> None:
        """One round: submit the shards *indices*, collect them in order.

        Fills *results*, or *errors* with each undelivered shard's typed
        error.  A broken or timed-out pool is dropped for a fresh one.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                self._num_workers,
                mp_context=multiprocessing.get_context(self._start_method),
                initializer=_pool_initializer,
                initargs=(self._state, os.environ.get(_FAULT_ENV, "")),
            )
        pool = self._pool
        futures: dict[int, Future] = {}
        broken = timed_out = False
        for index in indices:
            start, stop = shards[index]
            try:
                futures[index] = pool.submit(_run_shard, worker, index, start, stop)
            except BrokenProcessPool:
                broken = True  # a worker already died
                break
        for index in indices:
            shard = shards[index]
            label = f"shard {shard[0]}:{shard[1]}"
            future = futures.get(index)
            try:
                if future is None or (broken and not future.done()):
                    # A broken pool delivers nothing more, and a shard submitted
                    # while it broke can stay pending forever (Python 3.11 marks
                    # a pool broken without submit()'s lock): it is lost now.
                    raise BrokenProcessPool(label)
                results[index] = future.result(
                    None if deadline is None else max(deadline - time.monotonic(), 0)
                )
                errors.pop(index, None)
                continue
            except BrokenProcessPool:
                broken = True
                error = WorkerCrashError(
                    f"a pool worker died before {label} was delivered"
                )
            except TimeoutError:
                timed_out = True
                error = ShardTimeoutError(
                    f"{label} missed the {self._task_timeout}s map deadline"
                )
            except Exception as exc:  # noqa: BLE001 — the worker's own exception
                error = ShardError(
                    f"{label} worker raised {type(exc).__name__}: {exc}", cause=exc
                )
                error.__cause__ = exc
            error.shard, error.attempts = shard, attempts
            errors[index] = error
        if broken or timed_out:
            self._pool = None
            _terminate_workers(pool)

    def _run_inline(
        self,
        worker: Callable[[int, int], Any],
        index: int,
        shard: tuple[int, int],
        attempts: int = 0,
    ) -> Any:
        """Run one shard in this process, after *attempts* failed pool rounds.

        The previous ``_WORKER_STATE`` is always restored, so nested
        executors are unaffected even when the worker raises; an inline
        failure is terminal and surfaces as :class:`ShardError`.
        """
        global _WORKER_STATE
        previous = _WORKER_STATE
        _WORKER_STATE = self._state
        try:
            return _run_shard(worker, index, shard[0], shard[1])
        except Exception as exc:
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
    "check_execution_settings",
    "default_start_method",
    "env_default_workers",
    "env_min_items_per_worker",
    "map_sharded",
    "resolve_num_workers",
    "shard_plan",
    "tuned_num_workers",
    "worker_state",
)
