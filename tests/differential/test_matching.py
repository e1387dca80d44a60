"""The packed n-gram matcher against the seed nested-loop matcher.

The matcher is serial at every ``num_workers``: each route names a worker
count, must build no process pool, and must return the reference's pairs —
the same pairs in the same order, Rscore ties included.
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st
from oracles.matching import ReferenceRowMatcher

from differential.strategies import CELL, run_examples
from repro.datasets.synthetic import SyntheticConfig, generate_table_pair
from repro.datasets.web_tables import TOPICS, generate_pair
from repro.matching.row_matcher import MatchingConfig, NGramRowMatcher
from repro.parallel import executor

# A 3-symbol alphabet makes most n-grams collide, so representative
# selection comes down to tie-breaking.
TIGHT_CELL = st.text(alphabet="ab ", max_size=10)


def columns(cell, size, **options):
    column = st.lists(cell, min_size=1, max_size=size)
    return st.tuples(column, column, st.just(options))


def synthetic(seed, lowercase):
    pair, _ = generate_table_pair(SyntheticConfig(num_rows=60, seed=seed), name="m")
    options = {"lowercase": lowercase}
    return list(pair.source["value"]), list(pair.target["value"]), options


def wordlist(topic):
    # Names, streets and cities composed into cells that share many n-grams.
    pair = generate_pair(topic, num_rows=40, seed=11)
    return list(pair.source["join"]), list(pair.target["join"]), {}


FAMILIES = {
    "random": columns(CELL, 10, min_ngram=2, max_ngram=5),
    "rscore-ties": columns(TIGHT_CELL, 10, min_ngram=1, max_ngram=3),
    "capped": st.integers(1, 3).flatmap(
        lambda k: columns(CELL, 8, min_ngram=2, max_ngram=4, max_candidates_per_row=k)
    ),
    "synthetic": st.builds(synthetic, st.integers(0, 3), st.booleans()),
    "wordlist": st.sampled_from(TOPICS).map(wordlist),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "workers", [pytest.param(w, id=f"workers-{w}") for w in (1, 2, 3)]
)
def test_packed_matches_reference(family, workers, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("NGramRowMatcher built a process pool")

    monkeypatch.setattr(executor, "ProcessPoolExecutor", refuse)

    def check(case):
        source, target, options = case
        config = MatchingConfig(**options, num_workers=workers, min_rows_per_worker=0)
        reference = ReferenceRowMatcher(MatchingConfig(**options))
        assert NGramRowMatcher(config).match_values(source, target) == (
            reference.match_values(source, target)
        )

    run_examples(FAMILIES[family], check, pooled=False)
