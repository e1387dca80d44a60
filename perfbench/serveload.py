"""Drive a ``repro serve`` process over HTTP: open-loop and closed-loop phases.

The server runs in its own process, started through the CLI; the load comes
from this process with one thread per connection.  Open-loop requests are
due on a fixed schedule and are timed from when they were due, so a stall
also charges the wait it imposes on later requests.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from pathlib import Path
from time import perf_counter

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")

#: Client connections, one thread each: at most ``nproc`` on a 2-core host.
CONNECTIONS = 2


class ServerProcess:
    """``python -m repro serve MODEL_DIR --port 0`` with default limits, serial."""

    def __init__(self, root: Path, model_dir: Path, log_path: Path) -> None:
        self.root = root
        self.model_dir = model_dir
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> None:
        """Start the server and return once ``/healthz`` answers 200."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(self.model_dir),
                 "--port", "0", "--num-workers", "1"],
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + timeout_s
        while not self.port:
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            self._check_alive(deadline)
            time.sleep(0.005)
        while True:
            try:
                status, _ = self.request("GET", "/healthz", timeout_s=1.0)
                if status == 200:
                    return
            except OSError:
                pass
            self._check_alive(deadline)
            time.sleep(0.005)

    def _check_alive(self, deadline: float) -> None:
        assert self.process is not None
        if self.process.poll() is not None:
            raise RuntimeError(
                f"server exited with {self.process.returncode}: "
                f"{self.log_path.read_text(errors='replace')[-2000:]}"
            )
        if time.monotonic() > deadline:
            raise RuntimeError("server did not become healthy in time")

    def request(self, method: str, path: str, body: bytes | None = None,
                timeout_s: float = 10.0) -> tuple[int, bytes]:
        connection = HTTPConnection(self.host, self.port, timeout=timeout_s)
        try:
            connection.request(method, path, body)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stats(self) -> dict:
        status, raw = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(raw)

    def vm_hwm_mb(self) -> float:
        """Peak resident set size of the server process (``VmHWM``)."""
        assert self.process is not None
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process = None


@dataclass
class Request:
    """One request as sent: which body, and what came back."""

    body_id: int
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int | None = None  # None: timeout or connection error
    raw: bytes | None = None  # kept only for verified requests
    verified: bool = False
    mismatch: bool = False


@dataclass
class Phase:
    requests: list[Request] = field(default_factory=list)
    seconds: float = 0.0


class Traffic:
    """Request bodies and the rotation that picks one per request index."""

    def __init__(self, shape, hot_bodies: list[bytes], cold_bodies: list[bytes]) -> None:
        self.shape = shape
        self.bodies = hot_bodies + cold_bodies
        self.num_hot = len(hot_bodies)

    def body_id(self, index: int) -> int:
        shape = self.shape
        if index % shape.cold_every == shape.cold_every - 1:
            return self.num_hot + (index // shape.cold_every) % shape.pool
        return index % self.num_hot

    def is_cold(self, body_id: int) -> bool:
        return body_id >= self.num_hot

    def verify(self, index: int, body_id: int) -> bool:
        return self.is_cold(body_id) or index % self.shape.verify_every == 0


def _post(connection_box: list, host: str, port: int, path: str,
          body: bytes, timeout_s: float) -> tuple[int | None, bytes]:
    headers = {"Content-Type": "application/json"}
    try:
        connection = connection_box[0]
        connection.request("POST", path, body, headers)
        response = connection.getresponse()
        return response.status, response.read()
    except OSError:
        connection_box[0].close()
        connection_box[0] = HTTPConnection(host, port, timeout=timeout_s)
        return None, b""


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def warm_up(server: ServerProcess, traffic: Traffic, path: str) -> None:
    """Send every hot body once, so the joiner and the hot index are cached."""
    for body in traffic.bodies[: traffic.num_hot]:
        status, _ = server.request("POST", path, body)
        if status != 200:
            raise RuntimeError(f"warm-up request answered {status}")


def open_loop(server: ServerProcess, traffic: Traffic, path: str, first_index: int,
              count: int, timeout_s: float = 10.0) -> Phase:
    """*count* requests due at ``rate_rps``; whichever connection is free sends."""
    shape = traffic.shape
    requests = [Request(traffic.body_id(first_index + i)) for i in range(count)]
    lock = threading.Lock()
    cursor = [0]
    start = perf_counter() + 0.05

    def worker() -> None:
        box = [HTTPConnection(server.host, server.port, timeout=timeout_s)]
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= count:
                    return
                request = requests[index]
                request.due = start + index / shape.rate_rps
                wait = request.due - perf_counter()
                if wait > 0:
                    time.sleep(wait)
                request.sent = perf_counter()
                request.status, raw = _post(
                    box, server.host, server.port, path,
                    traffic.bodies[request.body_id], timeout_s,
                )
                request.done = perf_counter()
                if traffic.verify(first_index + index, request.body_id):
                    request.verified, request.raw = True, raw
        finally:
            box[0].close()

    _run_threads(worker, CONNECTIONS)
    return Phase(requests, perf_counter() - start)


def closed_loop(server: ServerProcess, traffic: Traffic, path: str, first_index: int,
                seconds: float, timeout_s: float = 10.0) -> Phase:
    """:data:`CONNECTIONS` clients, each sending its next request on a reply."""
    shape = traffic.shape
    requests: list[Request] = []
    lock = threading.Lock()
    cursor = [first_index]
    start = perf_counter()
    end = start + seconds

    def worker() -> None:
        box = [HTTPConnection(server.host, server.port, timeout=timeout_s)]
        try:
            while perf_counter() < end:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                request = Request(traffic.body_id(index))
                request.due = request.sent = perf_counter()
                request.status, raw = _post(
                    box, server.host, server.port, path,
                    traffic.bodies[request.body_id], timeout_s,
                )
                request.done = perf_counter()
                if traffic.verify(index, request.body_id):
                    request.verified, request.raw = True, raw
                with lock:
                    requests.append(request)
        finally:
            box[0].close()

    _run_threads(worker, CONNECTIONS)
    return Phase(requests, perf_counter() - start)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: with 1000 values, p99 has 10 values beyond it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]
