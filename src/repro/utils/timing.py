"""Timing helpers for per-module runtime breakdowns.

Figure 4 of the paper reports the running time of the discovery pipeline
broken down by module (unit extraction, placeholder generation, duplicate
removal, applying transformations).  :class:`StageTimer` accumulates wall
clock time per named stage so the discovery code can report that breakdown.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class StageTimer:
    """Accumulate elapsed time for named pipeline stages.

    Usage::

        timer = StageTimer()
        with timer.stage("placeholder_generation"):
            ...
        breakdown = timer.as_dict()
    """

    stages: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str):
        """Context manager that adds the elapsed time to stage *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + (
                time.perf_counter() - start
            )

    def as_dict(self) -> dict[str, float]:
        """Return a copy of the per-stage accumulated times."""
        return dict(self.stages)
