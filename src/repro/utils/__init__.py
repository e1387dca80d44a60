"""Shared utilities: separator-aware tokenizing and stage timers."""

from repro.utils.text import COMMON_SEPARATORS, is_separator, tokenize
from repro.utils.timing import StageTimer

__all__ = [
    "COMMON_SEPARATORS",
    "is_separator",
    "tokenize",
    "StageTimer",
]
