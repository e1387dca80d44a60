"""The inputs every differential route runs over, and how examples run.

One unit strategy feeds every coverage, apply and join route: all five
unit classes and the four split modes of ``TwoCharSplitSubstr``.  Targets
are random cells or what some transformation makes of the source, so
covers and joins are common rather than chance.
"""

from __future__ import annotations

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generation import TransformationGenerator
from repro.core.pairs import pairs_from_strings
from repro.core.skeletons import SkeletonBuilder
from repro.core.transformation import Transformation
from repro.core.units import (
    Literal,
    Split,
    SplitSubstr,
    Substr,
    TwoCharSplitSubstr,
)
from repro.datasets.synthetic import SyntheticConfig, generate_table_pair
from repro.model import TransformationModel

CELL = st.text(alphabet=string.ascii_lowercase + string.digits + " ,-.", max_size=14)
WORDS = st.lists(
    st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=7),
    min_size=1,
    max_size=4,
)
#: Source cells: random, or words joined by a delimiter the units split on.
SOURCE = st.one_of(
    CELL, st.builds(str.join, st.sampled_from([" ", ",", "-", ", "]), WORDS)
)


UNITS = st.one_of(
    st.builds(Literal, st.text(alphabet="ab, ", max_size=3)),
    st.builds(Substr, st.integers(0, 6), st.integers(7, 12)),
    st.builds(Split, st.sampled_from([",", " ", "-"]), st.integers(1, 3)),
    st.builds(
        SplitSubstr,
        st.sampled_from([",", " "]),
        st.integers(1, 2),
        st.integers(0, 2),
        st.integers(3, 5),
    ),
    # Both, the first, the second and neither delimiter a single character.
    st.builds(
        lambda delimiters, index, start, end: TwoCharSplitSubstr(
            *delimiters, index, start, end
        ),
        st.sampled_from([(",", " "), ("-", ", "), (", ", "-"), ("a,", "1 ")]),
        st.integers(1, 3),
        st.integers(0, 1),
        st.integers(2, 4),
    ),
)
TRANSFORMATIONS = st.lists(
    st.builds(Transformation, st.lists(UNITS, min_size=1, max_size=4)), max_size=12
)


def targets_for(source, transformations):
    """A target cell: what one of *transformations* makes of *source*, or
    a random one."""
    outputs = sorted(
        {out for t in transformations if (out := t.apply(source)) is not None}
    )
    return st.one_of(st.sampled_from(outputs), CELL) if outputs else CELL


@st.composite
def _coverage_case(draw, family):
    transformations = family(draw, draw(TRANSFORMATIONS))
    sources = draw(st.lists(SOURCE, max_size=10))
    pairs = [(s, draw(targets_for(s, transformations))) for s in sources]
    return pairs_from_strings(pairs), transformations


def _anchored(draw, transformations):
    # Literal anchors around every transformation give the prefilter
    # anchors to check at the root and below it.
    anchor = st.text(alphabet="ab, ", min_size=1, max_size=4)
    anchors = draw(st.lists(anchor, min_size=1, max_size=4))
    return [
        Transformation(
            (Literal(anchors[i % len(anchors)]),)
            + t.units
            + (Literal(anchors[(i + 1) % len(anchors)]),)
        )
        for i, t in enumerate(transformations)
    ] + transformations


def _anchorless(draw, transformations):
    # No literal anywhere: no anchors to prune with.
    kept = [[u for u in t.units if u.anchor_text is None] for t in transformations]
    return [Transformation(units) for units in kept if units]


def _synthetic(seed):
    """Synthetic golden pairs, and the candidates discovery generates from
    their first rows."""
    pair, _ = generate_table_pair(SyntheticConfig(num_rows=30, seed=seed), name="d")
    rows = pair.golden_string_pairs()
    skeletons, generator = SkeletonBuilder(), TransformationGenerator()
    candidates = dict.fromkeys(
        t
        for source, target in rows[:3]
        for t in generator.from_row(source, skeletons.build(source, target))
    )
    return pairs_from_strings(rows), list(candidates)


COVERAGE_FAMILIES = {
    "random": _coverage_case(lambda draw, ts: ts),
    "anchored": _coverage_case(_anchored),
    "anchorless": _coverage_case(_anchorless),
    "duplicated": _coverage_case(lambda draw, ts: ts + ts),
    "synthetic": st.integers(0, 2).map(_synthetic),
}


def model_of(transformations):
    """A model holding *transformations*, with counts that filter none."""
    return TransformationModel(
        transformations=transformations,
        coverage_counts=list(range(len(transformations))),
        num_candidate_pairs=len(transformations),
    )


def reloaded(transformations):
    """The model of *transformations*, saved and loaded back."""
    model = model_of(transformations)
    loaded = TransformationModel.loads(model.dumps())
    assert loaded == model
    return loaded


def run_examples(inputs, check, *, pooled):
    """Run *check* on examples of *inputs*; a *pooled* route starts a
    process pool per example, so it draws fewer of them."""
    examples = 10 if pooled else 40
    settings(max_examples=examples, deadline=None)(given(inputs)(check))()
