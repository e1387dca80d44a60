"""Matching and discovery give the same output under every string hash seed.

A row's n-grams are one set, and a set of strings iterates in an order
that depends on the interpreter's hash seed (``PYTHONHASHSEED``): the order
in which the index meets a row's grams, and so the insertion order of its
postings dict, changes from one interpreter to the next.  No output may.
Each subprocess below runs the n-gram matcher on a pair whose
representatives come down to score ties between grams of different target
rows, checked there against the reference matcher, and discovery on a
fixed 300-row synthetic pair; the two hash seeds must agree on the
candidate pairs, the top-k and the cover.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
SRC = TESTS.parent / "src"

SCRIPT = r"""
import json
import random
import sys

from oracles.matching import ReferenceRowMatcher

from repro.core.config import DiscoveryConfig
from repro.core.discovery import TransformationDiscovery
from repro.datasets.synthetic import SyntheticConfig, generate_table_pair
from repro.matching.row_matcher import MatchingConfig, NGramRowMatcher


def keys(pairs):
    return [[pair.source_row, pair.target_row] for pair in pairs]


def selection(results):
    return [[repr(result.transformation), result.coverage] for result in results]


# Each target row is one 4-letter word, and each source row joins three
# words with '-', so a source row keeps exactly its three words, each in
# one source row and one target row: their scores tie at 1.0, and the
# lexicographic tie-break alone picks the target row of the pair.
rng = random.Random(0)
words = set()
while len(words) < 90:
    words.add("".join(rng.choices("abcdefgh", k=4)))
words = sorted(words)
rng.shuffle(words)
source = ["-".join(words[start : start + 3]) for start in range(0, 90, 3)]
config = MatchingConfig(num_workers=1)
tied = NGramRowMatcher(config).match_values(source, words)
reference = ReferenceRowMatcher(config).match_values(source, words)

pair, _ = generate_table_pair(SyntheticConfig(num_rows=300, seed=3))
candidates = NGramRowMatcher(config).match_values(
    list(pair.source["value"]), list(pair.target["value"])
)
result = TransformationDiscovery(DiscoveryConfig(num_workers=1)).discover(candidates)
json.dump(
    {
        "words": words,
        "source": source,
        "tied": keys(tied),
        "reference": keys(reference),
        "candidates": keys(candidates),
        "top": selection(result.top),
        "cover": selection(result.cover),
    },
    sys.stdout,
)
"""


def run_under_hash_seed(seed: int) -> dict:
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(seed),
        PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]),
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout)


def test_matching_and_discovery_do_not_depend_on_the_hash_seed():
    first, second = (run_under_hash_seed(seed) for seed in (0, 1))
    for outcome in (first, second):
        assert outcome["tied"] == outcome["reference"]
        # Every source row's pair is the target row of its smallest word.
        words = outcome["words"]
        assert outcome["tied"] == [
            [row, words.index(min(text.split("-")))]
            for row, text in enumerate(outcome["source"])
        ]
        assert outcome["top"] and outcome["cover"]
    assert first == second
