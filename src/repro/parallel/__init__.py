"""Process-sharded execution of the coverage, setsim and apply stages.

Rows are independent in batched coverage, setsim matching and the apply
walk, so each of them can shard its rows across a process pool while
keeping results byte-identical to its serial branch (the executable spec).
Each stage calls :func:`~repro.parallel.executor.map_sharded` directly with
a plain tuple of read-only state and a module-level worker that sits beside
its serial kernel, and merges the in-order shard results itself:

* :meth:`repro.core.coverage.CoverageComputer.coverage_of_all` — identical
  covered rows and cache statistics;
* :meth:`repro.matching.setsim.SetSimRowMatcher.match_values_with_stats` —
  identical pairs, order and candidate count;
* :meth:`repro.model.apply.TransformationApplier.transform_rows` —
  identical outputs, ascending row order per transformation.

The n-gram matcher is serial: sharding it lost to serial on two cores.

:mod:`repro.parallel.executor` holds :func:`map_sharded` (a
``concurrent.futures.ProcessPoolExecutor`` per call, state shared
copy-on-write under fork or pickled once per worker under spawn and
forkserver, guided shard sizing with a work-stealing task queue, in-order
results).  The knobs are ``DiscoveryConfig.num_workers``,
``MatchingConfig.num_workers`` and ``TransformationJoiner``'s
``num_workers`` (1 = serial, 0 = all cores; defaults honour the
``REPRO_NUM_WORKERS`` environment variable), surfaced on the CLI as
``--num-workers``.  Every one of them resolves through
:func:`~repro.parallel.executor.tuned_num_workers`, so "all cores"
consistently honours the small-input fast path.

Failures inside the sharded paths surface as the typed taxonomy of
:mod:`repro.parallel.errors` (:class:`ShardError`,
:class:`WorkerCrashError`, :class:`ShardTimeoutError`); by default the
executor recovers from them transparently — bounded pool retries, then a
serial inline fallback that recomputes only the shards the pool did not
deliver — so the merged result stays byte-identical even on a flaky pool.
"""

from repro.parallel.errors import (
    DeadlineExceededError,
    ShardError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.parallel.executor import (
    default_start_method,
    env_default_workers,
    map_sharded,
    resolve_num_workers,
    shard_plan,
    tuned_num_workers,
    worker_state,
)

__all__ = [
    "DeadlineExceededError",
    "ShardError",
    "ShardTimeoutError",
    "WorkerCrashError",
    "default_start_method",
    "env_default_workers",
    "map_sharded",
    "resolve_num_workers",
    "shard_plan",
    "tuned_num_workers",
    "worker_state",
]
