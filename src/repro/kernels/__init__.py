"""The optional numpy tier: one vectorized apply walker.

:mod:`repro.kernels.apply` is the only numpy code in the package: a block
twin of the pure-Python apply walker of :mod:`repro.model.apply`.  It runs
when numpy is importable with the ``np.strings`` ops it needs and a batch
has at least 64 rows; every other batch, and every numpy-less install,
takes the Python walker.  Both return equal values (the property tests
assert it), and the Python walker stays the executable spec.

Every other loop is pure Python: numpy versions of the coverage walker,
the bitset ops over covered-row masks and the set-similarity posting
filters paid on no benchmark workload on a 2-core host (the README's
"Kernel tier" section has the A/B numbers).
"""

from __future__ import annotations

from repro.kernels.apply import available


def active_tier() -> str:
    """``"numpy"`` when the numpy apply walker can run here, else ``"python"``."""
    return "numpy" if available() else "python"


def numpy_version() -> str | None:
    """numpy's version string when it is importable at all, else ``None``.

    Reported whatever the tier, so a numpy without ``np.strings`` (tier
    ``"python"``) stays distinguishable from a numpy-less host.
    """
    try:
        import numpy
    except ImportError:
        return None
    return str(numpy.__version__)


__all__ = ["active_tier", "numpy_version"]
