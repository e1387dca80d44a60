"""Integration tests for the HTTP join service.

The acceptance bar: ``POST /join/<model>`` must return exactly the pairs
(content *and* order) that the offline ``JoinPipeline.apply`` path computes,
with the server running serially and with the apply stage sharded across
worker processes.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection

import pytest

from repro.core.discovery import TransformationDiscovery
from repro.datasets.synthetic import SyntheticConfig, generate_table_pair
from repro.join.pipeline import JoinPipeline
from repro.model.artifact import TransformationModel
from repro.serve import JoinServer


@pytest.fixture(scope="module")
def fitted():
    """One synthetic table pair and the model fitted on it."""
    pair, _ = generate_table_pair(SyntheticConfig(num_rows=200, seed=7))
    model = JoinPipeline(min_support=0.05).fit(
        pair.source, pair.target, source_column="value", target_column="value"
    )
    return pair, model


@pytest.fixture(scope="module")
def model_dir(fitted, tmp_path_factory):
    _, model = fitted
    directory = tmp_path_factory.mktemp("models")
    model.save(directory / "synth.json")
    return directory


def post_join(server: JoinServer, name: str, body: dict) -> tuple[int, dict]:
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=60)
    try:
        connection.request(
            "POST",
            f"/join/{name}",
            json.dumps(body).encode("utf-8"),
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def get(server: JoinServer, path: str) -> tuple[int, dict]:
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=60)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@pytest.mark.parametrize(
    "server_kwargs",
    [
        pytest.param({"num_workers": 1}, id="serial"),
        pytest.param({"num_workers": 2}, id="sharded"),
    ],
)
def test_served_join_is_byte_identical_to_offline_apply(
    fitted, model_dir, server_kwargs, monkeypatch
):
    # No small-input fast path, so 200 rows genuinely shard across the two
    # worker processes, started from a server thread.
    monkeypatch.setenv("REPRO_MIN_ROWS_PER_WORKER", "0")
    pair, model = fitted
    offline = JoinPipeline().apply(
        model,
        pair.source,
        pair.target,
        source_column="value",
        target_column="value",
    )
    expected_pairs = [list(join_pair) for join_pair in offline.join.pairs]
    body = {
        "source": list(pair.source["value"]),
        "target": list(pair.target["value"]),
    }
    with JoinServer(model_dir, port=0, **server_kwargs) as server:
        server.start_background()
        status, payload = post_join(server, "synth", body)
        assert status == 200
        assert payload["pairs"] == expected_pairs
        assert payload["num_pairs"] == offline.join.num_pairs
        assert payload["warm"] is False
        # Same request again: warm, still identical.
        status, payload = post_join(server, "synth", body)
        assert status == 200
        assert payload["pairs"] == expected_pairs
        assert payload["warm"] is True


@pytest.mark.parametrize("clients", [1, 4])
def test_concurrent_clients_get_the_offline_pairs(fitted, model_dir, clients):
    """Client threads post to one model at once, several requests each.

    Each client sends its own slice of the source rows, so answers mixed up
    between concurrent requests (as the micro-batcher could, when it
    coalesces them) fail here, as do a dropped pair and a non-200 answer.
    One client is the closed loop with nothing to coalesce.
    """
    pair, model = fitted
    source = list(pair.source["value"])
    target = list(pair.target["value"])
    requests_per_client = 5
    batches = [source[start::clients] for start in range(clients)]
    joiner = model.joiner()
    expected = [
        [list(join_pair) for join_pair in joiner.join_values(batch, target).pairs]
        for batch in batches
    ]
    answers: list[list[tuple[int, dict]]] = [[] for _ in range(clients)]
    start = threading.Barrier(clients)

    def client(index: int) -> None:
        start.wait(timeout=30)
        body = {"source": batches[index], "target": target}
        for _ in range(requests_per_client):
            answers[index].append(post_join(server, "synth", body))

    with JoinServer(model_dir, port=0) as server:
        server.start_background()
        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    for index in range(clients):
        assert len(answers[index]) == requests_per_client
        for status, payload in answers[index]:
            assert status == 200
            assert payload["pairs"] == expected[index]


def test_lone_surrogate_in_target_is_served(tmp_path, name_initial_pairs):
    """``"\\ud800"`` is valid JSON that decodes to a lone surrogate; the
    request must join like the offline joiner, not answer 500."""
    discovery = TransformationDiscovery()
    model = TransformationModel.from_discovery(
        discovery.discover_from_strings(name_initial_pairs),
        config=discovery.config,
        min_support=0.05,
    )
    model.save(tmp_path / "names.json")
    source = ["Rafiei, Davood", "x\ud800, y"]
    target = ["D Rafiei", "y x\ud800"]
    offline = model.joiner().join_values(source, target)
    assert offline.pairs == [(0, 0), (1, 1)]
    with JoinServer(tmp_path, port=0) as server:
        server.start_background()
        status, payload = post_join(
            server, "names", {"source": source, "target": target}
        )
        assert status == 200
        assert payload["pairs"] == [list(pair) for pair in offline.pairs]
        status, payload = post_join(
            server, "names", {"source": source, "target": ["D Rafiei", "\ud800"]}
        )
        assert status == 200
        offline = model.joiner().join_values(source, ["D Rafiei", "\ud800"])
        assert payload["pairs"] == [list(pair) for pair in offline.pairs]
        # A source batch of 72 rows walks like a 2-row one.
        batch = source + [f"Name{i}, First{i}" for i in range(70)]
        status, payload = post_join(
            server, "names", {"source": batch, "target": target}
        )
        assert status == 200
        offline = model.joiner().join_values(batch, target)
        assert (1, 1) in offline.pairs
        assert payload["pairs"] == [list(pair) for pair in offline.pairs]


def test_error_mapping_and_introspection_endpoints(model_dir):
    with JoinServer(model_dir, port=0) as server:
        server.start_background()

        status, payload = get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

        status, payload = get(server, "/models")
        assert status == 200
        names = [entry["name"] for entry in payload["models"]]
        assert names == ["synth"]

        status, payload = post_join(
            server, "missing", {"source": ["a"], "target": ["b"]}
        )
        assert status == 404
        assert payload["error"]["type"] == "ModelNotFoundError"

        status, payload = post_join(server, "synth", {"source": ["a"]})
        assert status == 400
        assert payload["error"]["type"] == "BadRequestError"

        status, payload = post_join(
            server, "../escape", {"source": ["a"], "target": ["b"]}
        )
        # The unsafe-name guard rejects traversal before any path lookup.
        assert status == 400
        assert payload["error"]["type"] == "BadRequestError"

        status, _ = post_join(server, "synth", {"source": ["a"], "target": ["a"]})
        assert status == 200

        status, payload = get(server, "/stats")
        assert status == 200
        assert payload["requests"] == 5  # /models, the four joins above
        assert payload["errors"] == 0  # a 404 or 400 is the client's mistake
        assert "registry" in payload["engine"]
        snapshot = payload["models"]["synth"]
        assert snapshot["count"] >= 1
        assert snapshot["first_request_ms"] is not None


def test_drain_stops_the_serve_loop_and_flips_healthz(model_dir):
    server = JoinServer(model_dir, port=0)
    server.start_background()
    thread = server._serve_thread
    assert thread is not None and thread.is_alive()
    server.request_shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()
    server.close()


def test_closing_a_server_that_never_served_leaves_no_thread(model_dir):
    # A thread left waiting for an accept loop that never ran would make
    # every later pool of this process start without fork.
    before = set(threading.enumerate())
    with JoinServer(model_dir, port=0):
        pass
    assert set(threading.enumerate()) <= before


def test_shutdown_requested_before_serving_stops_the_loop_at_once(model_dir):
    server = JoinServer(model_dir, port=0)
    server.request_shutdown()
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    loop.join(timeout=10)
    assert not loop.is_alive()
    server.close()
