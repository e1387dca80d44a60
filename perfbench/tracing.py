"""In-memory spans recorded around calls into the program's layers.

Spans are recorded by the benchmark around public calls; nothing inside
``src/`` is instrumented.  They stay in memory and are written once, at the
end, as Chrome trace-event JSON (open with Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """Nested spans: name, start, end and the index of the parent span."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        result: dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            result[name] = result.get(name, 0.0) + (end - start) - child_time[index]
        return result

    def chrome_events(self) -> list[dict]:
        pid = os.getpid()
        tid = threading.get_ident() % 1_000_000
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]

    def write_chrome(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": self.chrome_events()}))
