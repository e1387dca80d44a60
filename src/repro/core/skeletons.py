"""Transformation skeletons (Section 4.1.3 of the paper).

A *skeleton* is a sequence of placeholders and literals whose concatenation
reproduces the target text of a row.  Each skeleton is later expanded into
concrete transformations by replacing every placeholder with candidate
transformation units (:mod:`repro.core.unit_generation`).

For the pair ("Victor Robbie Kasumba", "Victor R. Kasumba") the paper's
example skeleton set is::

    {<(P: 'Victor R'), (L: '. '), (P: 'Kasumba')>,
     <(P: 'Victor'), (L: ' '), (P: 'R'), (L: '. '), (P: 'Kasumba')>,
     <(L: 'Victor R. Kasumba')>}

i.e. the maximal-placeholder skeleton, its separator-split refinement, and
the all-literal skeleton.  :class:`SkeletonBuilder` reproduces exactly that
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import DiscoveryConfig
from repro.core.placeholders import Placeholder, PlaceholderExtractor


@dataclass(frozen=True, slots=True)
class SkeletonPiece:
    """One element of a skeleton: either a placeholder or a literal gap."""

    text: str
    is_placeholder: bool
    placeholder: Placeholder | None = None

    def __post_init__(self) -> None:
        if self.is_placeholder and self.placeholder is None:
            raise ValueError("placeholder pieces must carry their Placeholder")
        if not self.is_placeholder and self.placeholder is not None:
            raise ValueError("literal pieces must not carry a Placeholder")
        if not self.text:
            raise ValueError("skeleton pieces must not be empty")


@dataclass(frozen=True, slots=True)
class Skeleton:
    """A sequence of placeholders and literals that spells out the target."""

    pieces: tuple[SkeletonPiece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("a skeleton must contain at least one piece")

    @property
    def num_placeholders(self) -> int:
        """Number of placeholder pieces."""
        return sum(1 for piece in self.pieces if piece.is_placeholder)

    def describe(self) -> str:
        """Render the skeleton as in the paper, e.g. ``<(P: 'a'), (L: 'b')>``."""
        rendered = ", ".join(
            f"({'P' if piece.is_placeholder else 'L'}: {piece.text!r})"
            for piece in self.pieces
        )
        return f"<{rendered}>"


class SkeletonBuilder:
    """Build the skeleton set of a (source, target) row pair."""

    def __init__(self, config: DiscoveryConfig | None = None) -> None:
        self._config = config or DiscoveryConfig()
        self._extractor = PlaceholderExtractor(
            min_length=self._config.min_placeholder_length,
            max_matches=self._config.max_matches_per_placeholder,
            split_on_separators=self._config.split_placeholders_on_separators,
        )

    def build(self, source: str, target: str) -> list[Skeleton]:
        """Return the skeletons of the pair, most-specific first.

        The result contains (subject to the ``max_placeholders`` bound):

        1. the maximal-placeholder skeleton,
        2. the separator-split refinement (when it differs),
        3. the all-literal skeleton (when enabled).

        Rows whose target is empty produce no skeletons.
        """
        if not target:
            return []
        skeletons: list[Skeleton] = []
        seen: set[tuple[tuple[str, bool], ...]] = set()
        placeholder_sets = self._extractor.extract(source, target)

        for key in ("maximal", "split"):
            placeholders = placeholder_sets.get(key)
            if placeholders is None:
                continue
            skeleton = self._assemble(target, placeholders)
            if skeleton is None:
                continue
            skeleton = self._demote_excess_placeholders(skeleton)
            if skeleton is None:
                continue
            signature = tuple((p.text, p.is_placeholder) for p in skeleton.pieces)
            if signature not in seen:
                seen.add(signature)
                skeletons.append(skeleton)

        if self._config.include_literal_only_skeleton:
            literal_only = Skeleton(
                (SkeletonPiece(text=target, is_placeholder=False),)
            )
            signature = ((target, False),)
            if signature not in seen:
                skeletons.append(literal_only)

        return skeletons

    def _demote_excess_placeholders(self, skeleton: Skeleton) -> Skeleton | None:
        """Keep the longest ``max_placeholders`` placeholders, demote the rest.

        A target often contains short blocks that occur in the source purely
        by chance (single letters of a constant e-mail domain, for example).
        Such blocks are placeholders by Definition 4, but a transformation
        with one unit per chance match would be long and overly specific.
        Rather than discarding a skeleton that exceeds the placeholder budget,
        the longest placeholders are kept — they carry the real copying
        evidence — and the remaining blocks become literals (which the paper
        explicitly allows: a literal may match the source by chance).
        """
        budget = self._config.max_placeholders
        if skeleton.num_placeholders <= budget:
            return skeleton
        placeholder_pieces = [p for p in skeleton.pieces if p.is_placeholder]
        keep = set(
            sorted(
                range(len(placeholder_pieces)),
                key=lambda i: (-len(placeholder_pieces[i].text), i),
            )[:budget]
        )
        pieces: list[SkeletonPiece] = []
        placeholder_index = 0
        for piece in skeleton.pieces:
            if piece.is_placeholder:
                if placeholder_index in keep:
                    pieces.append(piece)
                else:
                    pieces.append(SkeletonPiece(text=piece.text, is_placeholder=False))
                placeholder_index += 1
            else:
                pieces.append(piece)
        demoted = Skeleton(tuple(pieces))
        if demoted.num_placeholders == 0:
            return None
        return demoted

    def _assemble(
        self, target: str, placeholders: list[Placeholder]
    ) -> Skeleton | None:
        """Interleave *placeholders* with the literal gaps of *target*."""
        pieces: list[SkeletonPiece] = []
        cursor = 0
        for placeholder in placeholders:
            if placeholder.target_start > cursor:
                pieces.append(
                    SkeletonPiece(
                        text=target[cursor : placeholder.target_start],
                        is_placeholder=False,
                    )
                )
            pieces.append(
                SkeletonPiece(
                    text=placeholder.text,
                    is_placeholder=True,
                    placeholder=placeholder,
                )
            )
            cursor = placeholder.target_end
        if cursor < len(target):
            pieces.append(SkeletonPiece(text=target[cursor:], is_placeholder=False))
        if not pieces:
            return None
        skeleton = Skeleton(tuple(pieces))
        if skeleton.num_placeholders == 0:
            # Degenerates to the literal-only skeleton; let the caller decide
            # whether to include that.
            return None
        return skeleton
