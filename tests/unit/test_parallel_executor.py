"""Unit tests for the shared-index executor (repro.parallel.executor)."""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.coverage import CoverageComputer
from repro.core.discovery import TransformationDiscovery
from repro.core.transformation import Transformation
from repro.core.units import Substr
from repro.matching.row_matcher import MatchingConfig
from repro.model import TransformationApplier
from repro.parallel import executor
from repro.parallel.executor import (
    DEFAULT_MIN_ITEMS_PER_WORKER,
    default_start_method,
    env_default_workers,
    env_min_items_per_worker,
    map_sharded,
    resolve_num_workers,
    shard_plan,
    tuned_num_workers,
    worker_state,
)


def _shard_sum(start: int, stop: int) -> int:
    """Sum the shared value list over one shard (must be module-level to pickle)."""
    values = worker_state()
    return sum(values[start:stop])


def _shard_range(start: int, stop: int) -> list[int]:
    return list(range(start, stop))


def _shard_boom(start: int, stop: int) -> int:
    raise ValueError(f"boom in {start}:{stop}")


def _shard_pid(start: int, stop: int) -> int:
    return os.getpid()


def _refuse_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def _shard_nested_sum(start: int, stop: int) -> int:
    """Run a second, inline map over different state mid-shard."""
    outer = worker_state()
    inner_sums = map_sharded([100, 200], _shard_sum, 2, num_workers=1)
    # The inner map must restore this (outer) shard's state on exit.
    return sum(inner_sums) + sum(outer[start:stop])


class TestResolveNumWorkers:
    def test_positive_is_literal(self):
        assert resolve_num_workers(1) == 1
        assert resolve_num_workers(7) == 7

    def test_zero_resolves_to_cpu_count(self):
        # The regression contract of the `num_workers=0` knob.
        assert resolve_num_workers(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_num_workers(-1)


class TestEnvDefaultWorkers:
    def test_unset_means_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_WORKERS", raising=False)
        assert env_default_workers() == 1

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "4")
        assert env_default_workers() == 4

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "two")
        with pytest.raises(ValueError):
            env_default_workers()
        monkeypatch.setenv("REPRO_NUM_WORKERS", "-2")
        with pytest.raises(ValueError):
            env_default_workers()


class TestDefaultStartMethod:
    def test_prefers_fork_where_available(self, monkeypatch):
        # Threads an earlier test left running must not change the answer.
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        import multiprocessing

        expected = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        assert default_start_method() == expected

    def test_never_forks_a_process_running_other_threads(self, monkeypatch):
        # A forked child inherits the locks other threads hold, and can
        # deadlock on one: the server's handler threads start pools.
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        import multiprocessing

        available = multiprocessing.get_all_start_methods()
        expected = "forkserver" if "forkserver" in available else "spawn"
        release = threading.Event()
        helper = threading.Thread(target=release.wait, daemon=True)
        helper.start()
        try:
            assert default_start_method() == expected
            monkeypatch.setenv("REPRO_START_METHOD", "spawn")
            assert default_start_method() == "spawn"
        finally:
            release.set()
            helper.join(timeout=5)
        assert not helper.is_alive()

    def test_threads_fall_back_to_spawn_without_forkserver(self, monkeypatch):
        import multiprocessing

        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"]
        )
        assert default_start_method() == "spawn"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert default_start_method() == "spawn"

    def test_unknown_override_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "teleport")
        with pytest.raises(ValueError):
            default_start_method()


class TestShardPlan:
    @pytest.mark.parametrize("num_items", [0, 1, 2, 7, 100, 1001])
    @pytest.mark.parametrize("num_workers", [1, 2, 3, 8])
    def test_shards_are_contiguous_ascending_and_exhaustive(
        self, num_items, num_workers
    ):
        shards = shard_plan(num_items, num_workers)
        expected_start = 0
        for start, stop in shards:
            assert start == expected_start
            assert stop > start
            expected_start = stop
        assert expected_start == num_items

    def test_guided_sizing_decreases(self):
        sizes = [stop - start for start, stop in shard_plan(10000, 4)]
        assert sizes[0] == 10000 // 8
        assert sizes == sorted(sizes, reverse=True)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            shard_plan(-1, 2)
        with pytest.raises(ValueError):
            shard_plan(10, 0)


class TestMapSharded:
    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            map_sharded(None, _shard_sum, 3, num_workers=0)

    def test_workers_see_shared_state(self):
        values = list(range(100))
        shard_sums = map_sharded(values, _shard_sum, len(values), num_workers=2)
        assert sum(shard_sums) == sum(values)

    def test_results_come_back_in_shard_order(self):
        shard_results = map_sharded(None, _shard_range, 57, num_workers=3)
        flattened = [item for shard in shard_results for item in shard]
        assert flattened == list(range(57))

    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_no_items_start_no_pool(self, monkeypatch, num_workers):
        monkeypatch.setattr(executor, "ProcessPoolExecutor", _refuse_pool)
        assert map_sharded(None, _shard_range, 0, num_workers=num_workers) == []

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"max_shard_retries": -1}, "shard_retries must be >= 0"),
            ({"task_timeout": 0.0}, "task_timeout must be > 0"),
            ({"task_timeout": -1.0}, "task_timeout must be > 0"),
        ],
    )
    def test_settings_are_checked_before_any_work(
        self, monkeypatch, settings, message
    ):
        monkeypatch.setattr(executor, "ProcessPoolExecutor", _refuse_pool)
        with pytest.raises(ValueError, match=message):
            map_sharded([1, 2], _shard_sum, 2, num_workers=2, **settings)

    def test_no_worker_outlives_a_healthy_map(self):
        # The pool is shut down, its workers joined, before the call returns.
        pids = set(map_sharded(None, _shard_pid, 40, num_workers=2))
        assert pids and os.getpid() not in pids
        assert not pids & {child.pid for child in multiprocessing.active_children()}
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_worker_state_outside_pool_raises(self):
        with pytest.raises(RuntimeError):
            worker_state()

    def test_single_worker_runs_inline_without_pool(self, monkeypatch):
        # The small-input fast path: one worker starts no pool at all — the
        # shards run in-process against the same shared state.
        monkeypatch.setattr(executor, "ProcessPoolExecutor", _refuse_pool)
        values = list(range(30))
        shard_sums = map_sharded(values, _shard_sum, len(values), num_workers=1)
        assert sum(shard_sums) == sum(values)

    def test_inline_run_restores_outer_state(self):
        map_sharded([1], _shard_sum, 1, num_workers=1)
        # The state installed for the inline run must not leak.
        with pytest.raises(RuntimeError):
            worker_state()

    def test_inline_state_restored_after_worker_exception(self):
        # The save/restore is try/finally — a raising worker must not leave
        # its shard's state installed as the process-global worker state.
        from repro.parallel import ShardError

        with pytest.raises(ShardError) as excinfo:
            map_sharded([1, 2], _shard_boom, 2, num_workers=1)
        assert isinstance(excinfo.value.__cause__, ValueError)
        with pytest.raises(RuntimeError):
            worker_state()

    def test_inline_failure_names_its_shard(self):
        from repro.parallel import ShardError

        with pytest.raises(ShardError, match=r"shard 0:1 failed inline") as excinfo:
            map_sharded([1, 2], _shard_boom, 2, num_workers=1)
        error = excinfo.value
        assert error.shard == (0, 1)
        assert error.attempts == 0
        assert isinstance(error.cause, ValueError)
        assert error.cause is error.__cause__

    def test_error_types_share_one_base_except_the_deadline(self):
        from repro.parallel.errors import (
            DeadlineExceededError,
            ShardError,
            ShardTimeoutError,
            WorkerCrashError,
        )

        assert issubclass(WorkerCrashError, ShardError)
        assert issubclass(ShardTimeoutError, ShardError)
        # The deadline is raised by serial paths too and is never retried.
        assert not issubclass(DeadlineExceededError, ShardError)
        bare = ShardError("failed")
        assert (bare.shard, bare.attempts, bare.cause) == (None, 0, None)

    def test_nested_inline_maps_restore_outer_state(self):
        values = [1, 2, 3]
        shard_sums = map_sharded(values, _shard_nested_sum, len(values), num_workers=1)
        # Every shard saw the inner sum (300) plus its own slice of the
        # *outer* state — proof the nesting restored state between shards.
        assert sum(shard_sums) == 300 * len(shard_sums) + sum(values)
        with pytest.raises(RuntimeError):
            worker_state()


class TestTunedNumWorkers:
    def test_disabled_threshold_only_clamps_to_items(self):
        assert tuned_num_workers(4, 2, min_items_per_worker=0) == 2
        assert tuned_num_workers(4, 100, min_items_per_worker=0) == 4
        assert tuned_num_workers(1, 100, min_items_per_worker=0) == 1

    def test_small_inputs_scale_down(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # 100 items at 8 workers is 12.5 rows each — below a threshold of
        # 50 the pool shrinks to items // threshold.
        assert tuned_num_workers(8, 100, min_items_per_worker=50) == 2
        assert tuned_num_workers(8, 49, min_items_per_worker=50) == 1
        # Plenty of work per worker: the request stands.
        assert tuned_num_workers(8, 1000, min_items_per_worker=50) == 8

    def test_single_core_host_goes_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert tuned_num_workers(8, 10**6, min_items_per_worker=1) == 1

    def test_default_threshold_comes_from_env(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.delenv("REPRO_MIN_ROWS_PER_WORKER", raising=False)
        assert env_min_items_per_worker() == DEFAULT_MIN_ITEMS_PER_WORKER
        monkeypatch.setenv("REPRO_MIN_ROWS_PER_WORKER", "10")
        assert env_min_items_per_worker() == 10
        assert tuned_num_workers(4, 20) == 2
        monkeypatch.setenv("REPRO_MIN_ROWS_PER_WORKER", "0")
        assert tuned_num_workers(4, 20) == 4

    def test_bad_env_threshold_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MIN_ROWS_PER_WORKER", "many")
        with pytest.raises(ValueError):
            env_min_items_per_worker()
        monkeypatch.setenv("REPRO_MIN_ROWS_PER_WORKER", "-5")
        with pytest.raises(ValueError):
            env_min_items_per_worker()

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            tuned_num_workers(-1, 10)

    def test_negative_threshold_rejected(self):
        # Only 0 turns the small-input tuning off; a negative threshold is
        # an error, even where the worker count needs no tuning.
        with pytest.raises(ValueError):
            tuned_num_workers(2, 10, min_items_per_worker=-5)
        with pytest.raises(ValueError):
            tuned_num_workers(1, 10, min_items_per_worker=-1)


class TestWorkerKnobs:
    def test_zero_workers_runs_end_to_end(self):
        # num_workers=0 must not crash regardless of the host's core count
        # (on a 1-core host it resolves to the serial path).
        pairs = [("Rafiei, Davood", "D Rafiei"), ("Bowling, Michael", "M Bowling")]
        serial = TransformationDiscovery(
            DiscoveryConfig(num_workers=1)
        ).discover_from_strings(pairs)
        all_cores = TransformationDiscovery(
            DiscoveryConfig(num_workers=0)
        ).discover_from_strings(pairs)
        assert all_cores.top == serial.top
        assert all_cores.cover == serial.cover

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            DiscoveryConfig(num_workers=-1)
        with pytest.raises(ValueError):
            MatchingConfig(num_workers=-1)
        with pytest.raises(ValueError):
            CoverageComputer([], num_workers=-1).coverage_of_all([])

    def test_negative_min_rows_per_worker_rejected(self):
        # Only 0 turns the small-input fast path off; a negative threshold
        # is an error, not a second spelling of 0.
        with pytest.raises(ValueError):
            DiscoveryConfig(min_rows_per_worker=-5)
        with pytest.raises(ValueError):
            MatchingConfig(min_rows_per_worker=-5)
        assert DiscoveryConfig(min_rows_per_worker=0).min_rows_per_worker == 0
        assert MatchingConfig(min_rows_per_worker=0).min_rows_per_worker == 0

    def test_env_default_reaches_configs(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
        assert DiscoveryConfig().num_workers == 3
        assert MatchingConfig().num_workers == 3
        monkeypatch.delenv("REPRO_NUM_WORKERS")
        assert DiscoveryConfig().num_workers == 1
        assert MatchingConfig().num_workers == 1

    @pytest.mark.parametrize(
        "name, value",
        [
            ("shard_retries", -1),
            ("task_timeout", -1.0),
            ("task_timeout", 0.0),
            ("min_rows_per_worker", -1),
        ],
    )
    def test_fault_settings_fail_before_any_work(self, name, value):
        # Serial as well as sharded: the computer refuses to be built, with
        # the shared checks' message.
        with pytest.raises(ValueError, match=f"^{name} must be"):
            CoverageComputer([], num_workers=1, **{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("shard_retries", -1), ("task_timeout", -1.0), ("task_timeout", 0.0)],
    )
    def test_apply_fault_settings_fail_before_any_work(self, name, value):
        # transform_rows refuses to start, serial as well as sharded.
        applier = TransformationApplier([Transformation([Substr(0, 1)])])
        with pytest.raises(ValueError, match=f"^{name} must be"):
            applier.transform_rows(["a"], num_workers=1, **{name: value})
