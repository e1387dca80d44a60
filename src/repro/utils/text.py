"""Text helpers used across the library.

The "common separators" the paper breaks maximal-length placeholders on
(whitespace and punctuation), and a tokenizer that splits on them.
"""

from __future__ import annotations

import string

#: Characters treated as common separators when splitting maximal-length
#: placeholders into smaller candidate placeholders (Section 4.1.3 of the
#: paper: "using only space and punctuations as possible common separators
#: resolves all cases we have seen in our real datasets").
COMMON_SEPARATORS: frozenset[str] = frozenset(string.punctuation + string.whitespace)


def is_separator(char: str) -> bool:
    """Return True when *char* is a common separator (punctuation/whitespace)."""
    return char in COMMON_SEPARATORS


def tokenize(text: str) -> list[str]:
    """Split *text* into non-separator tokens.

    Tokens are maximal runs of characters that are not common separators.

    >>> tokenize("Rafiei, Davood")
    ['Rafiei', 'Davood']
    """
    tokens: list[str] = []
    current: list[str] = []
    for char in text:
        if is_separator(char):
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(char)
    if current:
        tokens.append("".join(current))
    return tokens
