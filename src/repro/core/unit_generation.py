"""Candidate unit generation per placeholder (Section 4.1.4 of the paper).

Given a placeholder (its text and where it matches in the source), the
generator produces every transformation unit that can emit that text from the
source:

1. ``Substr(s, e)`` for every recorded match position,
2. ``Split(c, i)`` where *c* is the character immediately before or after a
   match in the source, *c* does not occur in the placeholder text, and the
   *i*-th split piece equals the text,
3. ``SplitSubstr(c, i, s, e)`` where *c* is any source character not occurring
   in the text and the text appears inside the *i*-th split piece,
4. ``TwoCharSplitSubstr(c1, c2, i, s, e)`` analogously for two delimiters
   (disabled by default, matching the paper's experimental setup),
5. ``Literal(text)`` — useful when a constant of the target happens to occur
   in the source by chance.

Because the expected output and its source positions are known, the parameter
search is narrow — this is exactly what makes the approach fast compared to
Auto-Join's blind enumeration.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.config import DiscoveryConfig
from repro.core.placeholders import Placeholder
from repro.core.units import (
    Literal,
    Split,
    SplitSubstr,
    Substr,
    TransformationUnit,
    TwoCharSplitSubstr,
)


class UnitGenerator:
    """Generate the candidate units that replace a placeholder."""

    def __init__(self, config: DiscoveryConfig | None = None) -> None:
        self._config = config or DiscoveryConfig()
        self._enabled = frozenset(self._config.enabled_units)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def candidates(
        self, source: str, placeholder: Placeholder
    ) -> list[TransformationUnit]:
        """All candidate units that map *source* to the placeholder text."""
        text = placeholder.text
        units: list[TransformationUnit] = []
        seen: set[TransformationUnit] = set()

        def add(unit: TransformationUnit) -> None:
            if unit not in seen and unit.apply(source) == text:
                seen.add(unit)
                units.append(unit)

        if "Literal" in self._enabled:
            literal = Literal(text)
            if literal not in seen:
                seen.add(literal)
                units.append(literal)

        matches = placeholder.source_matches[
            : self._config.max_matches_per_placeholder
        ]
        for start in matches:
            end = start + len(text)
            if "Substr" in self._enabled:
                add(Substr(start, end))
            if "Split" in self._enabled:
                for unit in self._split_candidates(source, text, start, end):
                    add(unit)
            if "SplitSubstr" in self._enabled:
                for unit in self._split_substr_candidates(source, text, start, end):
                    add(unit)
            if "TwoCharSplitSubstr" in self._enabled:
                for unit in self._two_char_candidates(source, text, start, end):
                    add(unit)
        return units

    # ------------------------------------------------------------------ #
    # Split(c, i)
    # ------------------------------------------------------------------ #
    def _split_candidates(
        self, source: str, text: str, start: int, end: int
    ) -> list[Split]:
        """Split units whose delimiter is adjacent to the match in the source."""
        candidates: list[Split] = []
        adjacent: list[str] = []
        if start > 0:
            adjacent.append(source[start - 1])
        if end < len(source):
            adjacent.append(source[end])
        for delimiter in dict.fromkeys(adjacent):
            if delimiter in text:
                continue
            pieces = source.split(delimiter)
            for index, piece in enumerate(pieces, start=1):
                if piece == text:
                    candidates.append(Split(delimiter, index))
        return candidates

    # ------------------------------------------------------------------ #
    # SplitSubstr(c, i, s, e)
    # ------------------------------------------------------------------ #
    def _split_substr_candidates(
        self, source: str, text: str, start: int, end: int
    ) -> list[SplitSubstr]:
        """SplitSubstr units for promising source delimiters.

        Only the split piece that contains the match at [start, end) is
        considered, which keeps the candidate count per delimiter at one while
        still producing a unit that generalizes across rows with the same
        layout.  Delimiters are restricted to separator characters plus the
        characters adjacent to the match: those are the ones likely to be
        common across rows, and this keeps the per-placeholder parameter
        space O(1) (Section 5.1's observation).
        """
        candidates: list[SplitSubstr] = []
        for delimiter in self._split_delimiters(source, text, start, end):
            piece_index, piece_start = self._piece_containing(
                source, delimiter, start
            )
            if piece_index is None or piece_start is None:
                continue
            piece = source.split(delimiter)[piece_index - 1]
            offset = start - piece_start
            if offset < 0 or offset + len(text) > len(piece):
                continue
            if piece[offset : offset + len(text)] != text:
                continue
            candidates.append(
                SplitSubstr(delimiter, piece_index, offset, offset + len(text))
            )
        return candidates

    def _delimiters(self, source: str, text: str) -> list[str]:
        """Distinct source characters usable as delimiters for *text*."""
        return [c for c in dict.fromkeys(source) if c not in text]

    def _split_delimiters(
        self, source: str, text: str, start: int, end: int
    ) -> list[str]:
        """Delimiters worth trying for SplitSubstr around a specific match.

        Separator characters (whitespace/punctuation) anywhere in the source,
        plus whatever characters immediately precede and follow the match.
        """
        from repro.utils.text import is_separator

        promising: list[str] = [c for c in dict.fromkeys(source) if is_separator(c)]
        if start > 0:
            promising.append(source[start - 1])
        if end < len(source):
            promising.append(source[end])
        return [c for c in dict.fromkeys(promising) if c not in text]

    @staticmethod
    def _piece_containing(
        source: str, delimiter: str, position: int
    ) -> tuple[int | None, int | None]:
        """Locate the split piece containing source *position*.

        Returns (1-based piece index, start offset of the piece in *source*),
        or (None, None) when *position* falls on a delimiter character.
        """
        piece_start = 0
        index = 1
        for offset, char in enumerate(source):
            if char == delimiter:
                if piece_start <= position < offset:
                    return index, piece_start
                if position == offset:
                    return None, None
                piece_start = offset + 1
                index += 1
        if piece_start <= position <= len(source):
            return index, piece_start
        return None, None

    # ------------------------------------------------------------------ #
    # TwoCharSplitSubstr(c1, c2, i, s, e)
    # ------------------------------------------------------------------ #
    def _two_char_candidates(
        self, source: str, text: str, start: int, end: int
    ) -> list[TwoCharSplitSubstr]:
        """TwoCharSplitSubstr units over pairs of delimiters.

        The pair search is bounded to the separator-like characters adjacent
        to or surrounding the match so the candidate count stays small.
        """
        candidates: list[TwoCharSplitSubstr] = []
        delimiters = self._delimiters(source, text)
        # Bound the pair enumeration: prefer characters close to the match.
        nearby = [c for c in delimiters if c in source[max(0, start - 3) : end + 3]]
        pool = nearby if len(nearby) >= 2 else delimiters[:6]
        for delim1, delim2 in combinations(dict.fromkeys(pool), 2):
            unit = self._two_char_for(source, text, start, delim1, delim2)
            if unit is not None:
                candidates.append(unit)
        return candidates

    @staticmethod
    def _two_char_for(
        source: str, text: str, start: int, delim1: str, delim2: str
    ) -> TwoCharSplitSubstr | None:
        pieces: list[str] = []
        piece_starts: list[int] = [0]
        current: list[str] = []
        for offset, char in enumerate(source):
            if char == delim1 or char == delim2:
                pieces.append("".join(current))
                piece_starts.append(offset + 1)
                current = []
            else:
                current.append(char)
        pieces.append("".join(current))
        for index, (piece, piece_start) in enumerate(
            zip(pieces, piece_starts), start=1
        ):
            offset = start - piece_start
            if 0 <= offset and offset + len(text) <= len(piece):
                if piece[offset : offset + len(text)] == text:
                    return TwoCharSplitSubstr(
                        delim1, delim2, index, offset, offset + len(text)
                    )
        return None
