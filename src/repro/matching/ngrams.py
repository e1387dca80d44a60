"""Character n-gram extraction for the row matcher.

The matcher works on lower-cased character n-grams; joinable rows are
expected to share at least one reasonably rare n-gram (the "copying
relationship" the whole approach is built on).

A row's n-grams of every size come as one set: the packed index filters a
source row's set against the target's with one intersection and counts it
with one ``Counter.update``.  A set iterates in an order that depends on
the interpreter's string hash seed, so nothing built from one may depend
on that order: the index's posting arrays grow by row id, and a row's
representative n-gram of each size is a maximum with a lexicographic
tie-break, whatever the order the grams arrive in.
"""

from __future__ import annotations


def ngram_set(
    text: str,
    min_size: int,
    max_size: int,
    *,
    lowercase: bool = True,
) -> set[str]:
    """The distinct n-grams of every size in ``[min_size, max_size]``, as one set.

    Sizes larger than the text contribute nothing (as in Algorithm 1's
    scan, which stops at the text length).  The text is lower-cased once,
    not once per size, unless *lowercase* is off.
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
    return {
        text[start : start + size]
        for size in range(min_size, min(max_size, length) + 1)
        for start in range(length - size + 1)
    }
