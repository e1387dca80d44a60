"""The vectorized kernel tier beneath the apply opcodes and bitset ops.

This package provides numpy-backed batch implementations of three inner
loops: bitset ops over covered-row masks (:mod:`repro.kernels.bitset`), the
apply-only trie walker of :mod:`repro.model.apply`
(:mod:`repro.kernels.apply`), and the set-similarity filters
(:mod:`repro.kernels.setsim`).

The coverage walker of :mod:`repro.core.coverage` has no numpy twin and runs
pure Python on both tiers: a numpy block walker existed and measured slower
on a 2-core host (0.25-0.27 s against 0.17-0.18 s on the 300-row
``fit-wide`` fit, 0.33-0.34 s against 0.25 s on a 1,000-row fit, parity at
25k rows), so it was removed.

The tier is **optional and byte-identical**: one capability probe at first
use decides whether numpy is importable, and every kernel has a pure-Python
fallback producing exactly the same values (the property tests assert the
equality op by op, and the BENCH harness asserts it end to end).  The serial
Python walkers remain the executable spec — a kernel is an implementation of
the spec, never a reinterpretation of it.

Selection rules
---------------
* ``REPRO_KERNELS=python`` forces the pure-Python tier even when numpy is
  installed (the forced-fallback CI leg uses it).
* ``REPRO_KERNELS=numpy`` demands the numpy tier and raises at resolution
  time when numpy is not importable — a silent fallback would invalidate a
  benchmark that believes it measured the vectorized tier.
* Unset (the default): numpy when it imports, python otherwise.

The resolved tier is cached per process.  Sharded workers agree with their
parent under both start methods: ``fork`` inherits the resolved module state
outright, and ``spawn`` workers re-resolve from the same environment —
:func:`use_tier` writes the override through to ``os.environ`` precisely so
re-importing children land on the tier the parent pinned.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from types import ModuleType

_ENV_VAR = "REPRO_KERNELS"
_TIERS = ("python", "numpy")

#: Resolved tier name, or None before the first probe.
_tier: str | None = None
#: The numpy module when the active tier is "numpy", else None.
_np: ModuleType | None = None


def _import_numpy() -> ModuleType | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _resolve() -> tuple[str, ModuleType | None]:
    requested = os.environ.get(_ENV_VAR, "").strip().lower()
    if requested and requested not in _TIERS:
        raise ValueError(
            f"{_ENV_VAR} must be one of {list(_TIERS)}, got {requested!r}"
        )
    if requested == "python":
        return "python", None
    numpy = _import_numpy()
    if requested == "numpy":
        if numpy is None:
            raise ImportError(
                f"{_ENV_VAR}=numpy demands the numpy tier, but numpy is not "
                "importable; install numpy or unset the override"
            )
        return "numpy", numpy
    if numpy is None:
        return "python", None
    return "numpy", numpy


def active_tier() -> str:
    """The resolved kernel tier of this process: ``"numpy"`` or ``"python"``."""
    global _tier, _np
    if _tier is None:
        _tier, _np = _resolve()
    return _tier


def numpy_or_none() -> ModuleType | None:
    """The numpy module when the numpy tier is active, else ``None``."""
    active_tier()
    return _np


def numpy_version() -> str | None:
    """numpy's version string when it is importable at all, else ``None``.

    Reported regardless of the active tier (the BENCH host block records
    both facts: which tier ran, and which numpy — if any — was available).
    """
    numpy = _import_numpy()
    return None if numpy is None else str(numpy.__version__)


def refresh_tier() -> str:
    """Drop the cached resolution and re-probe the environment."""
    global _tier, _np
    _tier, _np = _resolve()
    return _tier


@contextmanager
def use_tier(tier: str) -> Iterator[str]:
    """Pin the kernel tier for the duration of the context (tests only).

    Writes the override through to ``os.environ`` so sharded workers spawned
    inside the context resolve to the same tier, then restores both the
    environment and the cached resolution.
    """
    if tier not in _TIERS:
        raise ValueError(f"tier must be one of {list(_TIERS)}, got {tier!r}")
    previous_env = os.environ.get(_ENV_VAR)
    os.environ[_ENV_VAR] = tier
    try:
        yield refresh_tier()
    finally:
        if previous_env is None:
            os.environ.pop(_ENV_VAR, None)
        else:
            os.environ[_ENV_VAR] = previous_env
        refresh_tier()


__all__ = [
    "active_tier",
    "numpy_or_none",
    "numpy_version",
    "refresh_tier",
    "use_tier",
]
