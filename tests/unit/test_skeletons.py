"""Unit tests for skeleton construction (repro.core.skeletons)."""

from __future__ import annotations

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.skeletons import Skeleton, SkeletonBuilder, SkeletonPiece


def placeholder_texts(skeleton: Skeleton) -> list[str]:
    return [p.text for p in skeleton.pieces if p.is_placeholder]


class TestSkeletonPiece:
    def test_placeholder_piece_requires_placeholder(self):
        with pytest.raises(ValueError):
            SkeletonPiece(text="abc", is_placeholder=True)

    def test_literal_piece_must_not_carry_placeholder(self):
        from repro.core.placeholders import Placeholder

        placeholder = Placeholder(
            text="abc", target_start=0, target_end=3, source_matches=(0,)
        )
        with pytest.raises(ValueError):
            SkeletonPiece(text="abc", is_placeholder=False, placeholder=placeholder)

    def test_empty_piece_rejected(self):
        with pytest.raises(ValueError):
            SkeletonPiece(text="", is_placeholder=False)


class TestSkeleton:
    def test_target_text_reconstruction(self):
        builder = SkeletonBuilder()
        skeletons = builder.build("bowling, michael", "michael.bowling@ualberta.ca")
        for skeleton in skeletons:
            pieces = "".join(piece.text for piece in skeleton.pieces)
            assert pieces == "michael.bowling@ualberta.ca"

    def test_describe_uses_paper_notation(self):
        builder = SkeletonBuilder()
        skeletons = builder.build("abc def", "abc-def")
        rendered = skeletons[0].describe()
        assert rendered.startswith("<(")
        assert "P:" in rendered or "L:" in rendered

    def test_empty_skeleton_rejected(self):
        with pytest.raises(ValueError):
            Skeleton(())


class TestSkeletonBuilder:
    def test_paper_victor_kasumba_example(self):
        """The three skeleton kinds of the Section 4.1.3 example are produced."""
        builder = SkeletonBuilder()
        skeletons = builder.build("Victor Robbie Kasumba", "Victor R. Kasumba")
        # Maximal skeleton: the long 'Victor R' placeholder is present.
        assert any("Victor R" in placeholder_texts(s) for s in skeletons)
        # Split skeleton: 'Victor' and 'R' appear as separate placeholders.
        assert any(
            "Victor" in placeholder_texts(s) and "R" in placeholder_texts(s)
            for s in skeletons
        )
        # Literal-only skeleton.
        assert any(s.num_placeholders == 0 for s in skeletons)

    def test_every_skeleton_spells_the_target(self):
        builder = SkeletonBuilder()
        cases = [
            ("Rafiei, Davood", "D Rafiei"),
            ("(780) 432-3636", "1-780-432-3636"),
            ("abc", "xyz"),
        ]
        for source, target in cases:
            for skeleton in builder.build(source, target):
                assert "".join(piece.text for piece in skeleton.pieces) == target

    def test_empty_target_produces_no_skeletons(self):
        builder = SkeletonBuilder()
        assert builder.build("abc", "") == []

    def test_literal_only_skeleton_can_be_disabled(self):
        config = DiscoveryConfig(include_literal_only_skeleton=False)
        builder = SkeletonBuilder(config)
        skeletons = builder.build("abc", "xyz")
        assert skeletons == []

    def test_placeholder_budget_demotes_rather_than_drops(self):
        """Chance single-character matches do not discard the skeleton."""
        config = DiscoveryConfig(max_placeholders=2)
        builder = SkeletonBuilder(config)
        source = "bowling, michael"
        target = "michael.bowling@ualberta.ca"
        skeletons = builder.build(source, target)
        with_placeholders = [s for s in skeletons if s.num_placeholders > 0]
        assert with_placeholders, "expected at least one non-literal skeleton"
        for skeleton in with_placeholders:
            assert skeleton.num_placeholders <= 2
        # The informative placeholders survive the demotion.
        best = max(with_placeholders, key=lambda s: s.num_placeholders)
        texts = placeholder_texts(best)
        assert "michael" in texts and "bowling" in texts

    def test_no_duplicate_skeletons(self):
        builder = SkeletonBuilder()
        skeletons = builder.build("abcdef", "abcdef")
        signatures = [
            tuple((p.text, p.is_placeholder) for p in s.pieces) for s in skeletons
        ]
        assert len(signatures) == len(set(signatures))

    def test_separator_splitting_can_be_disabled(self):
        config = DiscoveryConfig(split_placeholders_on_separators=False)
        builder = SkeletonBuilder(config)
        skeletons = builder.build("Victor Robbie Kasumba", "Victor R. Kasumba")
        assert not any(
            placeholder_texts(s) == ["Victor", "R", "Kasumba"] for s in skeletons
        )
