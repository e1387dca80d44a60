"""Unit tests for the serving engine: repeated joins on one joiner,
micro-batching, and thread-safe concurrent serving."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

import repro.join.joiner as joiner_module
import repro.serve.engine as engine_module
from repro.core.discovery import TransformationDiscovery
from repro.core.transformation import Transformation
from repro.model.artifact import TransformationModel
from repro.parallel.errors import DeadlineExceededError as CoreDeadlineExceededError
from repro.serve.engine import MicroBatcher, ServeEngine
from repro.serve.errors import ModelNotFoundError
from repro.serve.registry import ModelRegistry


def fit_model(pairs: list[tuple[str, str]]) -> TransformationModel:
    engine = TransformationDiscovery()
    result = engine.discover_from_strings(pairs)
    return TransformationModel.from_discovery(
        result, config=engine.config, min_support=0.05
    )


@pytest.fixture
def model(name_initial_pairs) -> TransformationModel:
    return fit_model(name_initial_pairs)


@pytest.fixture
def columns(name_initial_pairs) -> tuple[list[str], list[str]]:
    sources = [source for source, _ in name_initial_pairs]
    targets = [target for _, target in name_initial_pairs]
    return sources, targets


@pytest.fixture
def engine(tmp_path, model) -> ServeEngine:
    model.save(tmp_path / "names.json")
    return ServeEngine(ModelRegistry(tmp_path))


class TestRepeatedJoins:
    # One joiner serving many batches, the shape of a stream or a server.
    def test_results_match_per_batch_fresh_joiners(self, model, columns):
        sources, targets = columns
        batches = [
            (sources[:2], targets),
            (sources[2:], targets),
            (sources, targets[:3]),
        ]
        joiner = model.joiner()
        for batch_sources, batch_targets in batches:
            result = joiner.join_values(batch_sources, batch_targets)
            # A reloaded model is a fresh object, so its joiner is fresh too.
            fresh = TransformationModel.loads(model.dumps()).joiner()
            expected = fresh.join_values(batch_sources, batch_targets)
            assert result.pairs == expected.pairs
            assert result.matched_by == expected.matched_by

    def test_compiles_the_trie_exactly_once(
        self, model, columns, monkeypatch
    ):
        sources, targets = columns
        original = joiner_module.TransformationApplier
        builds = []

        def counting(transformations):
            builds.append(1)
            return original(transformations)

        monkeypatch.setattr(joiner_module, "TransformationApplier", counting)
        joiner = model.joiner()
        results = [joiner.join_values(sources, targets) for _ in range(4)]
        assert len(results) == 4 and results[0].pairs
        assert len(builds) == 1


def wait_until(condition, timeout: float = 5.0) -> None:
    """Poll *condition* until it holds; fail the test after *timeout*."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def start(target, *args) -> threading.Thread:
    thread = threading.Thread(target=target, args=args)
    thread.start()
    return thread


def join_all(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestMicroBatcher:
    def test_single_request_executes_alone(self):
        def execute(key, requests):
            return [(("ran", request.source_values), True) for request in requests]

        batcher = MicroBatcher(execute)
        result, warm, size = batcher.submit("k", ["a"], ["t"])
        assert result == ("ran", ["a"])
        assert warm is True
        assert size == 1
        assert batcher.stats()["batches_executed"] == 1

    def test_idle_key_never_waits(self, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"slept {seconds}s on an idle key")

        monkeypatch.setattr("repro.serve.engine.time.sleep", no_sleep)
        batcher = MicroBatcher(
            lambda key, requests: [("ran", True) for _ in requests]
        )
        assert batcher.submit("k", ["a"], ["t"]) == ("ran", True, 1)

    def test_concurrent_same_key_requests_coalesce(self):
        executions = []
        release = threading.Event()

        def execute(key, requests):
            executions.append(len(requests))
            if len(executions) == 1:
                release.wait(30)  # the running batch the others queue behind
            return [(tuple(request.source_values), False) for request in requests]

        batcher = MicroBatcher(execute)
        clients = 4
        results = [None] * clients

        def client(index: int) -> None:
            results[index] = batcher.submit("k", [f"s{index}"], ["t"])

        threads = [start(client, 0)]
        wait_until(lambda: executions)
        threads += [start(client, index) for index in range(1, clients)]
        wait_until(lambda: batcher.stats()["requests"] == clients)
        release.set()
        join_all(threads)
        # Every caller got exactly its own rows back.
        for index in range(clients):
            result, _, size = results[index]
            assert result == (f"s{index}",)
            assert 1 <= size <= clients
        # The requests queued behind the running batch ran as one batch.
        assert batcher.stats()["coalesced_requests"] >= 2
        assert sum(executions) == clients
        assert executions == [1, clients - 1]

    def test_expired_queued_leader_hands_its_batch_on(self):
        """The first queued request would lead the next batch; when its
        deadline lapses first it raises on time and leaves the queue, and
        the requests queued after it still run."""
        executions = []
        release = threading.Event()

        def execute(key, requests):
            executions.append([request.source_values[0] for request in requests])
            if len(executions) == 1:
                release.wait(30)
            return [(request.source_values[0], True) for request in requests]

        batcher = MicroBatcher(execute)
        outcomes: dict[str, object] = {}

        def client(name: str, budget_s: float | None = None) -> None:
            deadline = None if budget_s is None else time.monotonic() + budget_s
            try:
                outcomes[name] = batcher.submit("k", [name], ["t"], deadline=deadline)
            except CoreDeadlineExceededError as error:
                outcomes[name] = (error, time.monotonic() - deadline)

        threads = [start(client, "running")]
        wait_until(lambda: executions)
        threads.append(start(client, "expiring", 0.1))
        wait_until(lambda: batcher.stats()["requests"] == 2)
        for index, name in enumerate(["mate1", "mate2"]):
            threads.append(start(client, name))
            wait_until(lambda: batcher.stats()["requests"] == 3 + index)
        threads[1].join(timeout=10)
        # It raised while the batch it queued behind was still running.
        assert not threads[1].is_alive()
        error, late_s = outcomes["expiring"]
        assert isinstance(error, CoreDeadlineExceededError)
        assert late_s < 2.0
        release.set()
        join_all(threads)
        assert executions == [["running"], ["mate1", "mate2"]]
        assert outcomes["running"] == ("running", True, 1)
        assert outcomes["mate1"] == ("mate1", True, 2)
        assert outcomes["mate2"] == ("mate2", True, 2)

    def test_different_keys_do_not_wait_for_each_other(self):
        release = threading.Event()

        def execute(key, requests):
            if key == "slow":
                release.wait(30)
            return [(key, True) for _ in requests]

        batcher = MicroBatcher(execute)
        slow = start(batcher.submit, "slow", ["a"], ["t"])
        wait_until(lambda: batcher.stats()["requests"] == 1)
        assert batcher.submit("fast", ["b"], ["u"]) == ("fast", True, 1)
        assert slow.is_alive()
        release.set()
        join_all([slow])

    def test_idle_keys_leave_no_state(self):
        batcher = MicroBatcher(
            lambda key, requests: [(key, True) for _ in requests]
        )

        wrong = []

        def client(first: int) -> None:
            for index in range(first, first + 25):
                key = ("m", (f"t{index}",))
                result, _, _ = batcher.submit(key, ["s"], key[1])
                if result != key:
                    wrong.append((key, result))

        join_all([start(client, first) for first in range(0, 100, 25)])
        assert wrong == []
        assert batcher.stats()["requests"] == 100
        assert batcher._queues == {}

    def test_stress_every_request_runs_once_or_expires(self, monkeypatch):
        """Many threads on few keys, with deadlines short enough to expire
        while queued, inside a batch, or just as a batch is handed over."""
        executed: list[str] = []
        record = threading.Lock()

        def execute(key, requests):
            with record:
                executed.extend(request.source_values[0] for request in requests)
            time.sleep(0.0005)
            return [((key, request.source_values[0]), True) for request in requests]

        # A cap below the thread count, so full batches leave some queued.
        monkeypatch.setattr(engine_module, "MAX_BATCH_SIZE", 4)
        batcher = MicroBatcher(execute)
        succeeded: list[str] = []
        expired: list[str] = []
        failures: list[tuple] = []
        workers, rounds = 8, 40

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            for round_index in range(rounds):
                key = rng.randrange(3)
                token = f"{seed}-{round_index}"
                budget = rng.choice([None, None, None, 0.001, 0.003])
                deadline = None if budget is None else time.monotonic() + budget
                try:
                    result, _, size = batcher.submit(
                        key, [token], ["t"], deadline=deadline
                    )
                except CoreDeadlineExceededError:
                    expired.append(token)
                    continue
                if result != (key, token) or not 1 <= size <= 4:
                    failures.append((token, result, size))
                succeeded.append(token)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            join_all([start(worker, seed) for seed in range(workers)])
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(succeeded) + len(expired) == workers * rounds
        assert len(executed) == len(set(executed))  # nothing ran twice
        assert set(succeeded) <= set(executed)
        assert batcher.stats()["requests"] == workers * rounds
        assert batcher._queues == {}

    def test_execute_error_propagates_to_every_caller(self):
        def execute(key, requests):
            raise RuntimeError("boom")

        batcher = MicroBatcher(execute)
        with pytest.raises(RuntimeError, match="boom"):
            batcher.submit("k", ["a"], ["t"])


class TestServeEngine:
    def test_response_is_byte_identical_to_offline_apply(
        self, engine, model, columns
    ):
        sources, targets = columns
        offline = model.joiner().join_values(sources, targets)
        response = engine.join("names", sources, targets)
        assert response.pairs == offline.pairs
        assert response.matched_by == [
            repr(offline.matched_by[pair]) for pair in offline.pairs
        ]
        assert response.coalesced == 1
        payload = response.to_payload()
        assert payload["num_pairs"] == offline.num_pairs
        assert payload["pairs"] == [list(pair) for pair in offline.pairs]

    def test_second_request_is_warm(self, engine, columns):
        sources, targets = columns
        assert engine.join("names", sources, targets).warm is False
        assert engine.join("names", sources, targets).warm is True

    def test_unknown_model_raises_through_the_batcher(self, engine, columns):
        sources, targets = columns
        with pytest.raises(ModelNotFoundError):
            engine.join("missing", sources, targets)

    def test_coalesced_split_matches_solo_responses(
        self, engine, model, columns, monkeypatch
    ):
        """The micro-batch split must be byte-identical to solo requests."""
        sources, targets = columns
        solo = {
            index: model.joiner().join_values(sources[index : index + 2], targets)
            for index in range(len(sources) - 1)
        }
        clients = len(solo)
        # Hold the first request's apply so the others queue behind it and
        # run as one coalesced batch.
        release = threading.Event()
        lookups = []
        joiner_for = engine.registry.joiner_for

        def gated_joiner_for(name, **kwargs):
            lookups.append(name)
            if len(lookups) == 1:
                release.wait(30)
            return joiner_for(name, **kwargs)

        monkeypatch.setattr(engine.registry, "joiner_for", gated_joiner_for)
        responses = [None] * clients
        errors = []

        def client(index: int) -> None:
            try:
                responses[index] = engine.join(
                    "names", sources[index : index + 2], targets
                )
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [start(client, 0)]
        wait_until(lambda: lookups)
        threads += [start(client, index) for index in range(1, clients)]
        wait_until(lambda: engine.stats()["micro_batcher"]["requests"] == clients)
        release.set()
        join_all(threads)
        assert not errors
        assert [response.coalesced for response in responses] == [1] + [
            clients - 1
        ] * (clients - 1)
        for index, response in enumerate(responses):
            expected = solo[index]
            assert response.pairs == expected.pairs
            assert response.matched_by == [
                repr(expected.matched_by[pair]) for pair in expected.pairs
            ]

    def test_labels_render_once_per_transformation(
        self, engine, columns, monkeypatch
    ):
        sources, targets = columns
        engine.join("names", sources, targets)  # build the warm artifacts
        renders = []
        original = Transformation.__repr__

        def counting_repr(transformation):
            renders.append(transformation)
            return original(transformation)

        monkeypatch.setattr(Transformation, "__repr__", counting_repr)
        response = engine.join("names", sources * 4, targets)
        distinct = len(set(response.matched_by))
        assert response.num_pairs > distinct
        assert len(renders) <= distinct

    def test_concurrent_mixed_requests_equal_serial(self, engine, model, columns):
        """Thread-safety equivalence: hammer one engine from many threads with
        two different target columns; every response equals its serial twin."""
        sources, targets = columns
        other_targets = targets[:3]
        expected = {
            id(targets): model.joiner().join_values(sources, targets),
            id(other_targets): model.joiner().join_values(sources, other_targets),
        }
        rounds = 5
        workers = 8
        failures = []

        def worker(seed: int) -> None:
            for round_index in range(rounds):
                chosen = targets if (seed + round_index) % 2 == 0 else other_targets
                response = engine.join("names", sources, chosen)
                if response.pairs != expected[id(chosen)].pairs:
                    failures.append((seed, round_index))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        stats = engine.stats()
        assert stats["micro_batcher"]["requests"] >= rounds * workers
        assert stats["registry"]["joiner_cache"]["hits"] >= 1

    def test_micro_batch_off_still_serves(self, tmp_path, model, columns):
        sources, targets = columns
        model.save(tmp_path / "names.json")
        engine = ServeEngine(ModelRegistry(tmp_path), micro_batch=False)
        offline = model.joiner().join_values(sources, targets)
        response = engine.join("names", sources, targets)
        assert response.pairs == offline.pairs
        assert response.coalesced == 1

    def test_repeated_engine_joins_use_registry_caches(self, engine, columns):
        sources, targets = columns
        results = [
            engine.join("names", sources[:2], targets),
            engine.join("names", sources[2:], targets),
        ]
        assert [len(result.pairs) for result in results] == [2, 3]
        stats = engine.stats()["registry"]
        assert stats["target_index_cache"]["hits"] >= 1
