"""Transformations: sequences of units (Definition 2 of the paper).

Applying a transformation ``t = <t1, t2, ...>`` to a source string ``s``
produces the concatenation ``t1(s) + t2(s) + ...``.  A transformation *covers*
a (source, target) row pair when that concatenation equals the target.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.core.units import Literal, TransformationUnit


class Transformation:
    """An immutable, hashable sequence of transformation units.

    The hash is computed on first use: discovery builds every candidate
    once, after duplicate removal, and hashes few of them.
    """

    __slots__ = ("_units", "_hash")

    def __init__(self, units: Iterable[TransformationUnit]) -> None:
        units = tuple(units)
        if not units:
            raise ValueError("a transformation must contain at least one unit")
        self._units: tuple[TransformationUnit, ...] = units
        self._hash: int | None = None

    # ------------------------------------------------------------------ #
    # Value semantics
    # ------------------------------------------------------------------ #
    @property
    def units(self) -> tuple[TransformationUnit, ...]:
        """The unit sequence."""
        return self._units

    def __len__(self) -> int:
        return len(self._units)

    def __iter__(self) -> Iterator[TransformationUnit]:
        return iter(self._units)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transformation):
            return NotImplemented
        return self._units == other._units

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._units)
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(unit.describe() for unit in self._units)
        return f"<{inner}>"

    # ------------------------------------------------------------------ #
    # Semantics
    # ------------------------------------------------------------------ #
    def apply(self, source: str) -> str | None:
        """Apply the transformation to *source*.

        Returns the concatenated output of the units, or ``None`` when any
        unit is not applicable to *source*.
        """
        parts: list[str] = []
        for unit in self._units:
            output = unit.apply(source)
            if output is None:
                return None
            parts.append(output)
        return "".join(parts)

    def covers(self, source: str, target: str) -> bool:
        """True when ``apply(source) == target``."""
        return self.apply(source) == target

    # ------------------------------------------------------------------ #
    # Quality measures (Section 4.1.2)
    # ------------------------------------------------------------------ #
    @property
    def num_placeholders(self) -> int:
        """Number of non-constant units (the transformation length measure)."""
        return sum(1 for unit in self._units if not unit.is_constant)

    @property
    def is_constant(self) -> bool:
        """True when every unit is a literal (output independent of input)."""
        return all(unit.is_constant for unit in self._units)

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``<Split(',', 1), Literal(' ')>``."""
        return repr(self)

    def simplified(self) -> "Transformation":
        """Return an equivalent transformation with adjacent literals merged.

        Merging adjacent ``Literal`` units does not change the semantics but
        normalizes transformations generated from different skeletons so that
        duplicate removal catches more of them.
        """
        merged: list[TransformationUnit] = []
        for unit in self._units:
            if merged and isinstance(unit, Literal) and isinstance(merged[-1], Literal):
                merged[-1] = Literal(merged[-1].text + unit.text)
            else:
                merged.append(unit)
        if len(merged) == len(self._units):
            return self
        return Transformation(merged)
