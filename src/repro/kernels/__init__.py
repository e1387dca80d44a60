"""Walker-tier facts for the benchmark's host block.

Every loop of the package is pure Python and no module imports numpy: the
pure-Python apply walker beat the numpy one at every batch size measured
(the README's "Apply walker" section has the A/B numbers).  Two functions
stay because the repository benchmark (``perfbench/``) records them.
"""

from __future__ import annotations


def active_tier() -> str:
    """The walker tier of this process: always ``"python"``."""
    return "python"


def numpy_version() -> str | None:
    """numpy's version string when it is importable, else ``None``.

    Nothing here uses numpy; the version is recorded so benchmark records
    still say which hosts had it installed.
    """
    try:
        import numpy
    except ImportError:
        return None
    return str(numpy.__version__)


__all__ = ["active_tier", "numpy_version"]
