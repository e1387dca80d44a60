"""Chaos tests: injected crashes, hangs and exceptions inside real workers.

These tests set ``REPRO_FAULT_INJECT`` and run real process pools, proving
the executor's documented recovery contract end-to-end: a faulty pool still
produces the byte-identical merged result (serial fallback), and with the
fallback disabled the failure surfaces as the typed taxonomy of
``repro.parallel.errors``.  CI runs this module under the ``fork``,
``spawn`` and ``forkserver`` start methods (the ``chaos`` job).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.parallel import ShardError, ShardTimeoutError, WorkerCrashError, executor
from repro.parallel.executor import map_sharded, shard_plan, worker_state
from repro.testing.faults import (
    FAULT_ENV,
    FaultInjected,
    FaultSpec,
    parse_fault_spec,
)

VALUES = list(range(40))


def _shard_sum(start: int, stop: int) -> int:
    """Sum the shared value list over one shard (module-level to pickle)."""
    values = worker_state()
    return sum(values[start:stop])


def _record_pid_then_hang(start: int, stop: int) -> int:
    """In a pool worker: leave this process's pid in the shared directory,
    then hang; in the parent (the inline fallback): sum the shard."""
    parent_pid, pid_dir = worker_state()
    if os.getpid() != parent_pid:
        (Path(pid_dir) / str(os.getpid())).touch()
        time.sleep(30)
    return sum(VALUES[start:stop])


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture
def fallbacks(monkeypatch) -> list[int]:
    """The shard indices map_sharded re-runs inline after failed pool rounds."""
    recovered: list[int] = []
    run_inline = executor._run_inline

    def spy(state, worker, index, shard, attempts=0):
        recovered.append(index)
        return run_inline(state, worker, index, shard, attempts)

    monkeypatch.setattr(executor, "_run_inline", spy)
    return recovered


def _expected_sums(num_workers: int) -> list[int]:
    """What a fault-free run returns: one sum per shard of the plan.

    Computed analytically (not with a second pool) so the byte-identical
    assertion cannot be fooled by a systematic executor bug.
    """
    return [
        sum(VALUES[start:stop])
        for start, stop in shard_plan(len(VALUES), num_workers)
    ]


class TestParseFaultSpec:
    def test_bare_kinds(self):
        assert parse_fault_spec("crash") == FaultSpec(kind="crash")
        assert parse_fault_spec("hang") == FaultSpec(kind="hang")
        assert parse_fault_spec("raise") == FaultSpec(kind="raise")

    def test_options(self):
        spec = parse_fault_spec("crash:shard=2")
        assert spec == FaultSpec(kind="crash", shard=2)
        spec = parse_fault_spec("hang:seconds=0.25:where=any")
        assert spec == FaultSpec(kind="hang", seconds=0.25, where="any")
        spec = parse_fault_spec("raise:shard=0:where=inline")
        assert spec == FaultSpec(kind="raise", shard=0, where="inline")

    def test_whitespace_tolerated(self):
        assert parse_fault_spec("  crash : shard=1 ") == FaultSpec(
            kind="crash", shard=1
        )

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "explode",
            "crash:shard=two",
            "crash:where=everywhere",
            "crash:shard",
            "hang:seconds=soon",
            "crash:color=red",
            "crash:shard=-1",
            "hang:seconds=-5",
        ],
    )
    def test_malformed_specs_rejected(self, text):
        # A typo in a chaos-job configuration must fail loudly, not
        # silently inject nothing.
        with pytest.raises(ValueError):
            parse_fault_spec(text)

    def test_matches_filters_by_shard_and_site(self):
        spec = FaultSpec(kind="raise", shard=2, where="pool")
        assert spec.matches(2, in_pool_worker=True)
        assert not spec.matches(1, in_pool_worker=True)
        assert not spec.matches(2, in_pool_worker=False)
        everywhere = FaultSpec(kind="raise", where="any")
        assert everywhere.matches(0, in_pool_worker=True)
        assert everywhere.matches(0, in_pool_worker=False)
        inline_only = FaultSpec(kind="raise", where="inline")
        assert not inline_only.matches(0, in_pool_worker=True)
        assert inline_only.matches(0, in_pool_worker=False)


class TestCrashRecovery:
    def test_crashed_shard_recovers_byte_identical(self, monkeypatch, fallbacks):
        monkeypatch.setenv(FAULT_ENV, "crash:shard=1")
        sums = map_sharded(VALUES, _shard_sum, len(VALUES), num_workers=2)
        # Each crash also loses the shards the broken pool had not delivered.
        assert 1 in fallbacks
        assert sums == _expected_sums(2)

    def test_all_shards_crashing_recover_byte_identical(self, monkeypatch, fallbacks):
        # Every pool attempt dies; every shard must come back through the
        # serial inline fallback (where the pool-targeted fault never fires).
        monkeypatch.setenv(FAULT_ENV, "crash")
        sums = map_sharded(
            VALUES, _shard_sum, len(VALUES), num_workers=2, max_shard_retries=0
        )
        assert fallbacks == list(range(len(shard_plan(len(VALUES), 2))))
        assert sums == _expected_sums(2)

    def test_crash_without_fallback_raises_typed_error(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "crash:shard=0")
        with pytest.raises(WorkerCrashError) as excinfo:
            map_sharded(
                VALUES,
                _shard_sum,
                len(VALUES),
                num_workers=2,
                max_shard_retries=0,
                serial_fallback=False,
            )
        error = excinfo.value
        assert error.shard == shard_plan(len(VALUES), 2)[0]
        assert error.attempts >= 1

    def test_shard_lost_while_the_pool_broke_does_not_hang(self, monkeypatch):
        # A shard submitted while the pool breaks can stay pending forever.
        # Once an earlier shard reported the crash, the executor must count
        # it lost and recover it inline instead of waiting on it.
        real_submit = ProcessPoolExecutor.submit

        def submit(pool, fn, *args):
            if args[1] == 2:  # (worker, shard_index, start, stop)
                return Future()  # never resolves
            return real_submit(pool, fn, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        monkeypatch.setenv(FAULT_ENV, "crash:shard=0")
        outcome = []

        def run():
            outcome.append(
                map_sharded(
                    VALUES, _shard_sum, len(VALUES), num_workers=2, max_shard_retries=0
                )
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert outcome == [_expected_sums(2)]


class TestHangRecovery:
    def test_hung_shards_fall_back_within_the_map_deadline(
        self, monkeypatch, fallbacks
    ):
        # Every shard hangs, but task_timeout bounds the *whole map*: one
        # deadline at submission, so the run finishes in ~timeout, not
        # num_shards * timeout, and the fallback recomputes every shard.
        monkeypatch.setenv(FAULT_ENV, "hang:seconds=30")
        started = time.monotonic()
        sums = map_sharded(
            VALUES, _shard_sum, len(VALUES), num_workers=2, task_timeout=0.5
        )
        elapsed = time.monotonic() - started
        assert sums == _expected_sums(2)
        num_shards = len(shard_plan(len(VALUES), 2))
        assert fallbacks == list(range(num_shards))
        assert elapsed < 0.5 * num_shards / 2
        assert elapsed < 5.0

    def test_no_worker_outlives_a_map_whose_shards_hung(self, tmp_path, fallbacks):
        # Hung workers never finish their shard, so map_sharded must kill
        # them rather than wait: once the map returns, none is left.  The
        # deadline leaves spawned workers time to start and hang.
        started = time.monotonic()
        sums = map_sharded(
            (os.getpid(), str(tmp_path)),
            _record_pid_then_hang,
            len(VALUES),
            num_workers=2,
            task_timeout=2.0,
        )
        assert fallbacks
        assert time.monotonic() - started < 10.0
        assert sums == _expected_sums(2)
        pids = {int(path.name) for path in tmp_path.iterdir()}
        assert pids
        assert not [pid for pid in pids if _alive(pid)]
        live = {child.pid for child in multiprocessing.active_children()}
        assert not pids & live

    def test_hang_without_fallback_raises_timeout(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "hang:seconds=30")
        with pytest.raises(ShardTimeoutError):
            map_sharded(
                VALUES,
                _shard_sum,
                len(VALUES),
                num_workers=2,
                task_timeout=0.3,
                serial_fallback=False,
            )


class TestRaiseRecovery:
    def test_raising_shards_retry_then_recover_inline(self, monkeypatch, fallbacks):
        monkeypatch.setenv(FAULT_ENV, "raise")
        sums = map_sharded(
            VALUES, _shard_sum, len(VALUES), num_workers=2, max_shard_retries=1
        )
        assert fallbacks == list(range(len(shard_plan(len(VALUES), 2))))
        assert sums == _expected_sums(2)

    def test_raise_everywhere_surfaces_shard_error_with_cause(self, monkeypatch):
        # where=any also poisons the inline fallback, so recovery is
        # impossible and the terminal ShardError must carry the injected
        # exception as its cause.
        monkeypatch.setenv(FAULT_ENV, "raise:shard=0:where=any")
        with pytest.raises(ShardError) as excinfo:
            map_sharded(
                VALUES, _shard_sum, len(VALUES), num_workers=2, max_shard_retries=0
            )
        assert isinstance(excinfo.value.cause, FaultInjected)
        assert isinstance(excinfo.value.__cause__, FaultInjected)

    def test_inline_targeted_fault_leaves_the_pool_unharmed(
        self, monkeypatch, fallbacks
    ):
        # The converse of the recovery tests: a where=inline fault never
        # fires in pool workers, so a healthy pool run needs no fallback.
        monkeypatch.setenv(FAULT_ENV, "raise:where=inline")
        sums = map_sharded(VALUES, _shard_sum, len(VALUES), num_workers=2)
        assert not fallbacks
        assert sums == _expected_sums(2)


class TestNoInjection:
    def test_unset_env_means_clean_run(self, monkeypatch, fallbacks):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        sums = map_sharded(VALUES, _shard_sum, len(VALUES), num_workers=2)
        assert not fallbacks
        assert sums == _expected_sums(2)


class TestEngineRecovery:
    def test_discovery_recovers_from_a_worker_crash(
        self, monkeypatch, name_initial_pairs
    ):
        # End-to-end through the real engines: discovery with a crashing
        # coverage worker must equal the serial run exactly.  The serial
        # baseline runs under the same fault spec — where=pool (the default)
        # never fires without a pool, which is precisely the property that
        # makes the fallback provable.
        from repro.core.config import DiscoveryConfig
        from repro.core.discovery import TransformationDiscovery

        monkeypatch.setenv(FAULT_ENV, "crash:shard=0")
        monkeypatch.setenv("REPRO_MIN_ROWS_PER_WORKER", "0")
        serial = TransformationDiscovery(
            DiscoveryConfig(num_workers=1)
        ).discover_from_strings(name_initial_pairs)
        sharded = TransformationDiscovery(
            DiscoveryConfig(num_workers=2)
        ).discover_from_strings(name_initial_pairs)
        assert [
            (c.transformation, c.covered_rows) for c in sharded.cover
        ] == [(c.transformation, c.covered_rows) for c in serial.cover]
        assert sharded.top_coverage == serial.top_coverage

    def test_setsim_matching_recovers_from_a_worker_crash(
        self, monkeypatch, name_initial_pairs
    ):
        # The crashed shard is re-run inline in the parent against the same
        # state tuple: pairs and candidate count equal the serial run's.
        from repro.matching.row_matcher import MatchingConfig
        from repro.matching.setsim import SetSimRowMatcher

        source = [source for source, _ in name_initial_pairs] * 4
        target = [target for _, target in name_initial_pairs] * 4

        def match(num_workers):
            config = MatchingConfig(
                engine="setsim",
                setsim_tokenizer="qgram",
                setsim_qgram=2,
                setsim_threshold=0.2,
                num_workers=num_workers,
                min_rows_per_worker=0,
            )
            pairs, stats = SetSimRowMatcher(config).match_values_with_stats(
                source, target
            )
            return pairs, stats.candidates

        monkeypatch.setenv(FAULT_ENV, "crash:shard=0")
        serial = match(1)
        assert serial[0]
        assert match(2) == serial

    def test_apply_recovers_from_a_worker_crash(
        self, monkeypatch, name_initial_pairs
    ):
        from repro.core.transformation import Transformation
        from repro.core.units import Literal, Split, SplitSubstr
        from repro.model.apply import TransformationApplier

        applier = TransformationApplier(
            [
                Transformation(
                    (SplitSubstr(" ", 2, 0, 1), Literal(" "), Split(",", 1))
                ),
                Transformation((Split(",", 2),)),
            ]
        )
        values = [source for source, _ in name_initial_pairs] * 4
        monkeypatch.setenv(FAULT_ENV, "crash:shard=0")
        monkeypatch.setenv("REPRO_MIN_ROWS_PER_WORKER", "0")
        serial = applier.transform_rows(values)
        assert serial
        sharded = applier.transform_rows(values, num_workers=2)
        assert sharded == serial
