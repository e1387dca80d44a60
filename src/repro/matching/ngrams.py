"""Character n-gram extraction for the row matcher.

The matcher works on lower-cased character n-grams; joinable rows are
expected to share at least one reasonably rare n-gram (the "copying
relationship" the whole approach is built on).
"""

from __future__ import annotations

from collections.abc import Iterator


def unique_ngrams_by_size(
    text: str,
    min_size: int,
    max_size: int,
    *,
    lowercase: bool = True,
) -> Iterator[list[str]]:
    """Yield the distinct n-grams of each size in ``[min_size, max_size]``.

    One list per size, smallest size first, grams in first-occurrence order;
    sizes larger than the text yield nothing (the iteration simply stops, as
    in Algorithm 1's scan).  This is the tokenisation primitive of the
    packed inverted index: the text is lower-cased once (not once per size)
    and each size is extracted in a single sweep.

    The dedup is *order-preserving* (``dict.fromkeys``), not a set: gram
    enumeration order feeds the index's postings-dict insertion order, and a
    set's iteration order depends on the per-interpreter string hash seed —
    first-occurrence order makes index builds reproducible across
    interpreters.
    """
    if min_size <= 0:
        raise ValueError(f"min n-gram size must be positive, got {min_size}")
    if max_size < min_size:
        raise ValueError(
            f"max n-gram size ({max_size}) must be >= min size ({min_size})"
        )
    if lowercase:
        text = text.lower()
    length = len(text)
    for size in range(min_size, min(max_size, length) + 1):
        yield list(
            dict.fromkeys(
                text[start : start + size] for start in range(length - size + 1)
            )
        )
