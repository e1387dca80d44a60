"""Transformation units (Definition 1 of the paper).

A transformation unit is a function that, applied to an input string, copies
either part of the input or a constant literal to the output.  The paper's
unit set is:

* ``Substr(s, e)`` — the substring of the input from position *s* (inclusive)
  to *e* (exclusive), 0-based.
* ``Split(c, i)`` — split the input on delimiter *c* and return the *i*-th
  piece, 1-based (the paper's example ``Split(',', 1)`` selects the first
  piece).
* ``SplitSubstr(c, i, s, e)`` — ``Split(c, i)`` followed by ``Substr(s, e)``
  applied to the selected piece.
* ``TwoCharSplitSubstr(c1, c2, i, s, e)`` — split on both delimiters, take the
  *i*-th piece, then a substring of it.  Together with ``SplitSubstr`` this
  expresses everything Auto-Join's ``SplitSplitSubstr`` can (Lemma 1).
* ``Literal(text)`` — the constant *text*, irrespective of the input.

Every unit's :meth:`~TransformationUnit.apply` returns ``None`` when it is not
applicable to the given input (delimiter absent, index out of range, …); a
transformation whose unit returns ``None`` does not cover that row.

Units are immutable, hashable value objects so they can be deduplicated in
hash sets and used as cache keys for the non-covering-unit cache.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass


class TransformationUnit(ABC):
    """Base class of all transformation units."""

    __slots__ = ()

    @abstractmethod
    def apply(self, source: str) -> str | None:
        """Apply the unit to *source*.

        Returns the produced output string, or ``None`` when the unit is not
        applicable to this input (e.g. the delimiter does not occur or an
        index is out of range).
        """

    @property
    def is_constant(self) -> bool:
        """True when the unit's output does not depend on the input."""
        return False

    @property
    def anchor_text(self) -> str | None:
        """The literal text this unit is guaranteed to emit, or ``None``.

        A transformation covers a row only if every unit's output is a
        substring of the row's target, so a non-empty anchor restricts the
        rows a transformation can possibly cover to those whose target
        contains the anchor.  The batched coverage engine finds the anchors
        each row's target contains and skips provably-uncovered rows (the
        literal-anchored candidate prefilter); units without an anchor
        (everything but :class:`Literal`) contribute nothing to the
        prefilter, which degrades to a no-op for transformations built
        entirely from such units.
        """
        return None

    @abstractmethod
    def describe(self) -> str:
        """Human-readable rendering, e.g. ``Substr(0, 7)``."""

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.describe()


@dataclass(frozen=True, slots=True)
class Literal(TransformationUnit):
    """A constant literal: returns ``text`` irrespective of the input."""

    text: str

    def apply(self, source: str) -> str | None:
        return self.text

    @property
    def is_constant(self) -> bool:
        return True

    @property
    def anchor_text(self) -> str | None:
        # The empty literal is a substring of every target: no anchor.
        return self.text or None

    def describe(self) -> str:
        return f"Literal({self.text!r})"


@dataclass(frozen=True, slots=True)
class Substr(TransformationUnit):
    """Copy the substring ``source[start:end]`` (0-based, end exclusive).

    The unit is not applicable when the requested range does not fully fit in
    the input or is empty.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < 0:
            raise ValueError(
                f"Substr positions must be non-negative, got ({self.start}, {self.end})"
            )
        if self.end <= self.start:
            raise ValueError(
                f"Substr end must be greater than start, got ({self.start}, {self.end})"
            )

    def apply(self, source: str) -> str | None:
        if self.end > len(source):
            return None
        return source[self.start : self.end]

    def describe(self) -> str:
        return f"Substr({self.start}, {self.end})"


@dataclass(frozen=True, slots=True)
class Split(TransformationUnit):
    """Split the input on ``delimiter`` and return the ``index``-th piece.

    ``index`` is 1-based, following the paper's examples.  The unit is not
    applicable when the delimiter does not occur in the input or the index is
    out of range.
    """

    delimiter: str
    index: int

    def __post_init__(self) -> None:
        if not self.delimiter:
            raise ValueError("Split delimiter must not be empty")
        if self.index < 1:
            raise ValueError(f"Split index is 1-based, got {self.index}")

    def apply(self, source: str) -> str | None:
        if self.delimiter not in source:
            return None
        pieces = source.split(self.delimiter)
        if self.index > len(pieces):
            return None
        return pieces[self.index - 1]

    def describe(self) -> str:
        return f"Split({self.delimiter!r}, {self.index})"


@dataclass(frozen=True, slots=True)
class SplitSubstr(TransformationUnit):
    """``Split(delimiter, index)`` followed by ``Substr(start, end)``.

    The substring positions are relative to the selected split piece.
    """

    delimiter: str
    index: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if not self.delimiter:
            raise ValueError("SplitSubstr delimiter must not be empty")
        if self.index < 1:
            raise ValueError(f"SplitSubstr index is 1-based, got {self.index}")
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                "SplitSubstr substring range must satisfy 0 <= start < end, "
                f"got ({self.start}, {self.end})"
            )

    def apply(self, source: str) -> str | None:
        if self.delimiter not in source:
            return None
        pieces = source.split(self.delimiter)
        if self.index > len(pieces):
            return None
        piece = pieces[self.index - 1]
        if self.end > len(piece):
            return None
        return piece[self.start : self.end]

    def describe(self) -> str:
        return (
            f"SplitSubstr({self.delimiter!r}, {self.index}, {self.start}, {self.end})"
        )


@dataclass(frozen=True, slots=True)
class TwoCharSplitSubstr(TransformationUnit):
    """Split on two delimiters, take the ``index``-th piece, then a substring.

    The input is split wherever either ``delimiter1`` or ``delimiter2``
    occurs.  Together with :class:`SplitSubstr` this covers every
    transformation expressible with Auto-Join's ``SplitSplitSubstr`` (Lemma 1
    of the paper).
    """

    delimiter1: str
    delimiter2: str
    index: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if not self.delimiter1 or not self.delimiter2:
            raise ValueError("TwoCharSplitSubstr delimiters must not be empty")
        if self.delimiter1 == self.delimiter2:
            raise ValueError("TwoCharSplitSubstr delimiters must differ")
        if self.index < 1:
            raise ValueError(f"TwoCharSplitSubstr index is 1-based, got {self.index}")
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                "TwoCharSplitSubstr substring range must satisfy 0 <= start < end, "
                f"got ({self.start}, {self.end})"
            )

    def _split(self, source: str) -> list[str]:
        pieces: list[str] = []
        current: list[str] = []
        for char in source:
            if char == self.delimiter1 or char == self.delimiter2:
                pieces.append("".join(current))
                current = []
            else:
                current.append(char)
        pieces.append("".join(current))
        return pieces

    def apply(self, source: str) -> str | None:
        if self.delimiter1 not in source and self.delimiter2 not in source:
            return None
        pieces = self._split(source)
        if self.index > len(pieces):
            return None
        piece = pieces[self.index - 1]
        if self.end > len(piece):
            return None
        return piece[self.start : self.end]

    def describe(self) -> str:
        return (
            f"TwoCharSplitSubstr({self.delimiter1!r}, {self.delimiter2!r}, "
            f"{self.index}, {self.start}, {self.end})"
        )


#: Names of all unit classes, used by configuration to enable/disable units.
UNIT_NAMES: tuple[str, ...] = (
    "Literal",
    "Substr",
    "Split",
    "SplitSubstr",
    "TwoCharSplitSubstr",
)

#: Mapping from unit name to class, for configuration parsing.
UNIT_CLASSES: dict[str, type[TransformationUnit]] = {
    "Literal": Literal,
    "Substr": Substr,
    "Split": Split,
    "SplitSubstr": SplitSubstr,
    "TwoCharSplitSubstr": TwoCharSplitSubstr,
}
