"""Deterministic fault injection for the sharded execution paths.

Recovery code that is never executed is recovery code that does not work, so
the executor's crash/hang/exception handling is proven by *injecting* those
faults inside real worker processes and asserting the documented outcome —
either full recovery with byte-identical results, or the typed error of
:mod:`repro.parallel.errors`.  The hook is environment-triggered and works
identically under ``fork``, ``spawn`` and ``forkserver`` (the pool
initializer hands each worker the parent's spec, and spawned workers
re-import this module cleanly):

.. code-block:: shell

    REPRO_FAULT_INJECT="crash:shard=2"      # os._exit inside the worker
    REPRO_FAULT_INJECT="hang"               # sleep out the task_timeout
    REPRO_FAULT_INJECT="raise:shard=0"      # raise FaultInjected

The spec grammar is ``kind[:key=value]...`` with:

``kind``
    ``crash`` (hard worker death via ``os._exit`` — no exception, no result,
    the ``BrokenProcessPool`` class of failure), ``hang`` (sleep, default
    3600 s, to exercise deadline handling), ``raise`` (raise
    :class:`FaultInjected`, the in-worker exception path), or ``slow``
    (sleep ``seconds`` then continue — a latency bubble rather than a
    failure; pair it with an explicit ``seconds=``).
``shard=N``
    Only trigger on the shard with index *N* in the shard plan (default:
    every shard).
``where=pool|inline|any``
    Where the fault fires.  The default ``pool`` fires only inside pool
    worker processes — never in the parent's inline paths — which is what
    makes recovery *provable*: the injected fault deterministically kills
    every pool attempt, and the executor's serial inline fallback then
    computes the same shard in-process, fault-free, so the merged result
    must be byte-identical to an uninjected run.  ``inline``/``any`` extend
    the blast radius to the in-process paths for tests of the terminal
    (typed-error) outcomes.
``where=registry|engine|server``
    The serve-tier sites (see :func:`maybe_inject_serve`): the registry's
    model load, the engine's batch dispatch, and the HTTP handler's entry.
    A serve site must be named explicitly — the executor's shard hook
    ignores serve-scoped specs and vice versa, so one environment variable
    cannot accidentally poison both tiers.  ``crash`` is rejected with a
    serve site: it would kill the whole server process, which is a process
    supervisor's test, not this layer's.
``seconds=S``
    Sleep duration for ``hang`` and ``slow``.

The spec is consulted by the executor's shard dispatch
(:func:`repro.parallel.executor._run_shard`) and the serving layer's
injection points (:func:`maybe_inject_serve`) with near-zero cost when the
environment variable is unset.  It is a testing facility: production code
must never set ``REPRO_FAULT_INJECT``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

#: The environment variable carrying the fault spec.
FAULT_ENV = "REPRO_FAULT_INJECT"

#: Exit status of an injected crash — distinctive on purpose, so a test
#: watching worker exit codes can tell the injected death from a real one.
CRASH_EXIT_CODE = 23

#: ``slow`` differs from ``hang`` only in intent: a bounded latency bubble
#: (set ``seconds=``) versus sleeping out whatever deadline polices the
#: site.  Both honour a cooperative deadline in :func:`maybe_inject_serve`.
_KINDS = ("crash", "hang", "raise", "slow")

#: The serve-tier injection sites of :func:`maybe_inject_serve`.
SERVE_SITES = ("registry", "engine", "server")

_WHERE = ("pool", "inline", "any") + SERVE_SITES

#: Tick granularity of the deadline-aware sleeps in
#: :func:`maybe_inject_serve`: an injected hang still answers a 504 within
#: one tick of the request deadline instead of holding the handler thread
#: for the full sleep.
_SERVE_TICK_S = 0.05


class FaultInjected(RuntimeError):
    """The exception an injected ``raise`` fault throws inside a worker."""


@dataclass(frozen=True)
class FaultSpec:
    """A parsed ``REPRO_FAULT_INJECT`` value."""

    kind: str
    shard: int | None = None
    where: str = "pool"
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"fault kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.where not in _WHERE:
            raise ValueError(
                f"fault where must be one of {_WHERE}, got {self.where!r}"
            )
        if self.shard is not None and self.shard < 0:
            raise ValueError(f"fault shard must be >= 0, got {self.shard}")
        if self.seconds < 0:
            raise ValueError(f"fault seconds must be >= 0, got {self.seconds}")
        if self.kind == "crash" and self.where in SERVE_SITES:
            raise ValueError(
                "fault kind 'crash' cannot target a serve site (it would "
                "kill the whole server process); use slow/raise/hang"
            )

    def matches(self, shard_index: int, *, in_pool_worker: bool) -> bool:
        """Whether the fault fires for *shard_index* at this call site.

        Serve-scoped specs never match the executor's shard sites.
        """
        if self.where in SERVE_SITES:
            return False
        if self.shard is not None and self.shard != shard_index:
            return False
        if self.where == "pool":
            return in_pool_worker
        if self.where == "inline":
            return not in_pool_worker
        return True

    def matches_site(self, site: str) -> bool:
        """Whether the fault fires at serve site *site*.

        Serve sites must be named explicitly (``where=registry`` etc.) —
        ``any`` is an executor-tier wildcard and does not reach into the
        serve tier.
        """
        return self.where == site


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse a ``REPRO_FAULT_INJECT`` value into a :class:`FaultSpec`.

    Raises ``ValueError`` on malformed specs — a typo in a chaos-job
    configuration must fail the run loudly, not silently inject nothing.
    """
    parts = [part.strip() for part in text.strip().split(":")]
    if not parts or not parts[0]:
        raise ValueError(f"empty fault spec {text!r}")
    kind = parts[0]
    fields: dict[str, object] = {}
    for part in parts[1:]:
        key, separator, value = part.partition("=")
        if not separator:
            raise ValueError(
                f"fault spec options must be key=value, got {part!r} in {text!r}"
            )
        if key == "shard":
            try:
                fields["shard"] = int(value)
            except ValueError:
                raise ValueError(
                    f"fault shard must be an integer, got {value!r}"
                ) from None
        elif key == "where":
            fields["where"] = value
        elif key == "seconds":
            try:
                fields["seconds"] = float(value)
            except ValueError:
                raise ValueError(
                    f"fault seconds must be a number, got {value!r}"
                ) from None
        else:
            raise ValueError(f"unknown fault spec option {key!r} in {text!r}")
    return FaultSpec(kind=kind, **fields)  # type: ignore[arg-type]


def active_fault() -> FaultSpec | None:
    """The currently configured fault, or ``None`` when injection is off.

    Read from the environment on every call (not cached): tests flip the
    variable between runs.  Pool workers do not rely on inheriting it — a
    forkserver worker would inherit the fork server's copy from whenever
    that server started — so the executor's pool initializer sets each
    worker's variable to the parent's spec at pool start-up.
    """
    text = os.environ.get(FAULT_ENV, "").strip()
    if not text:
        return None
    return parse_fault_spec(text)


def maybe_inject(shard_index: int, *, in_pool_worker: bool) -> None:
    """Fire the configured fault for *shard_index*, if any matches.

    ``crash`` exits the process immediately (``os._exit`` skips all cleanup,
    exactly like a segfault or an OOM kill would); ``hang`` sleeps; ``raise``
    throws :class:`FaultInjected`.  A no-op when no fault is configured or
    the spec does not match this shard/site.
    """
    spec = active_fault()
    if spec is None or not spec.matches(shard_index, in_pool_worker=in_pool_worker):
        return
    if spec.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if spec.kind in ("hang", "slow"):
        time.sleep(spec.seconds)
        return
    raise FaultInjected(
        f"injected fault on shard {shard_index} "
        f"({'pool worker' if in_pool_worker else 'inline'})"
    )


def maybe_inject_serve(site: str, *, deadline: float | None = None) -> None:
    """Fire the configured fault at serve site *site*, if one targets it.

    The serve-tier counterpart of :func:`maybe_inject`, consulted at the
    registry's model load (``registry``), the engine's batch dispatch
    (``engine``) and the HTTP handler's entry (``server``).  ``raise``
    throws :class:`FaultInjected` (a typed failure the breaker counts);
    ``slow`` and ``hang`` sleep ``seconds`` — in :data:`_SERVE_TICK_S`
    ticks, so when the caller passes its cooperative monotonic *deadline*
    the sleep is cut there with
    :class:`~repro.parallel.errors.DeadlineExceededError`, proving a hung
    dependency still turns into a timely 504 rather than a held thread.
    A no-op when no fault is configured or the spec names another site.
    """
    spec = active_fault()
    if spec is None or not spec.matches_site(site):
        return
    if spec.kind == "raise":
        raise FaultInjected(f"injected fault at serve site {site!r}")
    from repro.parallel.errors import DeadlineExceededError  # noqa: PLC0415

    end = time.monotonic() + spec.seconds
    while True:
        now = time.monotonic()
        if deadline is not None and now >= deadline:
            raise DeadlineExceededError(
                f"deadline expired during injected {spec.kind!r} fault at "
                f"serve site {site!r}"
            )
        if now >= end:
            return
        tick = min(_SERVE_TICK_S, end - now)
        if deadline is not None:
            tick = min(tick, deadline - now)
        time.sleep(max(tick, 0.0))


__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_ENV",
    "SERVE_SITES",
    "FaultInjected",
    "FaultSpec",
    "active_fault",
    "maybe_inject",
    "maybe_inject_serve",
    "parse_fault_spec",
]
