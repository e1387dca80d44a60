"""The setsim matcher is exact, deterministic, and shard-invariant.

Two guarantees, each load-bearing for the engine's claim that its speedup
is *pure pruning* (the posting filter and overlap count it rests on are
checked on their own at the end):

* **Exactness** — on randomized token tables the prefix-filtered matcher
  returns the same match set as brute-force all-pairs similarity at the same
  threshold, for jaccard/cosine/overlap, including exact-threshold ties
  (thresholds like 1/3 and 0.5 that real size combinations hit exactly),
  empty token sets, and duplicate rows.
* **Determinism** — the global token ordering and the match output never
  depend on the per-interpreter string hash seed (the trap PR 8 closed for
  n-gram dedup): a subprocess sweep over ``PYTHONHASHSEED`` values must
  produce byte-identical orderings and matches, and the sharded path must
  reproduce the serial pair list exactly under fork and spawn at any worker
  count.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.row_matcher import MatchingConfig
from repro.matching.setsim import (
    SetSimRowMatcher,
    filter_token_postings,
    intersect_count,
    similarity_score,
    size_bounds,
)
from repro.matching.tokenize import whitespace_tokens

WORKER_COUNTS = (1, 2, 3)

# A tiny vocabulary on purpose: heavy token reuse produces dense similarity
# structure (shared prefixes, threshold ties, duplicate rows) that a sparse
# alphabet would almost never generate.
VOCAB = [f"t{i}" for i in range(12)]

ROW = st.lists(st.sampled_from(VOCAB), min_size=0, max_size=6).map(" ".join)
TABLE = st.lists(ROW, min_size=0, max_size=25)

# Thresholds real size combinations hit *exactly*: jaccard 1/3 (overlap 1 of
# sizes 1+3, or 2 of 2+4...), 0.5, and 1.0 (identical sets); the conservative
# filter epsilon must not flip these ties either way.
JACCARD_THRESHOLDS = (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0)
COSINE_THRESHOLDS = (0.5, 1.0 / math.sqrt(2.0), 1.0)
OVERLAP_THRESHOLDS = (1, 2, 4)


def brute_force_matches(
    source_values, target_values, similarity, threshold
) -> set[tuple[int, int]]:
    """All-pairs similarity at the same threshold — the executable spec."""
    source_sets = [frozenset(whitespace_tokens(v)) for v in source_values]
    target_sets = [frozenset(whitespace_tokens(v)) for v in target_values]
    matches = set()
    for i, left in enumerate(source_sets):
        for j, right in enumerate(target_sets):
            if not left or not right:
                continue
            score = similarity_score(
                len(left & right), len(left), len(right), similarity
            )
            if score >= threshold:
                matches.add((i, j))
    return matches


def matcher_for(similarity, threshold, **overrides) -> SetSimRowMatcher:
    config = MatchingConfig(
        engine="setsim",
        setsim_similarity=similarity,
        setsim_threshold=threshold,
        setsim_tokenizer="whitespace",
        num_workers=overrides.pop("num_workers", 1),
        **overrides,
    )
    return SetSimRowMatcher(config)


# --------------------------------------------------------------------------
# Exactness: prefix-filtered == brute force, all measures, tie thresholds.
# --------------------------------------------------------------------------


@settings(deadline=None, max_examples=80)
@given(
    source=TABLE,
    target=TABLE,
    threshold=st.sampled_from(JACCARD_THRESHOLDS),
)
def test_jaccard_equals_brute_force(source, target, threshold):
    pairs, stats = matcher_for("jaccard", threshold).match_values_with_stats(
        source, target
    )
    produced = {(p.source_row, p.target_row) for p in pairs}
    assert produced == brute_force_matches(source, target, "jaccard", threshold)
    assert stats.matches == len(pairs) <= stats.candidates <= max(stats.all_pairs, 0)


@settings(deadline=None, max_examples=80)
@given(
    source=TABLE,
    target=TABLE,
    threshold=st.sampled_from(COSINE_THRESHOLDS),
)
def test_cosine_equals_brute_force(source, target, threshold):
    pairs = matcher_for("cosine", threshold).match_values(source, target)
    produced = {(p.source_row, p.target_row) for p in pairs}
    assert produced == brute_force_matches(source, target, "cosine", threshold)


@settings(deadline=None, max_examples=80)
@given(
    source=TABLE,
    target=TABLE,
    threshold=st.sampled_from(OVERLAP_THRESHOLDS),
)
def test_overlap_equals_brute_force(source, target, threshold):
    pairs = matcher_for("overlap", threshold).match_values(source, target)
    produced = {(p.source_row, p.target_row) for p in pairs}
    assert produced == brute_force_matches(source, target, "overlap", threshold)


def test_empty_and_duplicate_rows():
    """Empty token sets match nothing (even at overlap 1); duplicate rows
    each produce their own (row-id-distinct) matches."""
    source = ["t1 t2", "", "t1 t2", "   "]
    target = ["t1 t2", "", "t2 t1"]
    for similarity, threshold in (("jaccard", 1.0), ("overlap", 1)):
        pairs = matcher_for(similarity, threshold).match_values(source, target)
        produced = {(p.source_row, p.target_row) for p in pairs}
        assert produced == {(0, 0), (0, 2), (2, 0), (2, 2)}
        assert produced == brute_force_matches(
            source, target, similarity, threshold
        )


# --------------------------------------------------------------------------
# Determinism: sharding (fork and spawn) and the string hash seed.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_shards_reproduce_serial_byte_identical(start_method, monkeypatch):
    """Shard concatenation reproduces the serial matcher exactly — pairs,
    order, and the candidate count — at any worker count, fork or spawn."""
    import multiprocessing

    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {start_method} unavailable")
    import random

    monkeypatch.setenv("REPRO_START_METHOD", start_method)
    rng = random.Random(11)
    source = [
        " ".join(rng.choice(VOCAB) for _ in range(rng.randint(0, 6)))
        for _ in range(160)
    ]
    target = [
        " ".join(rng.choice(VOCAB) for _ in range(rng.randint(0, 6)))
        for _ in range(160)
    ]
    serial_pairs, serial_stats = matcher_for("jaccard", 0.5).match_values_with_stats(
        source, target
    )
    for num_workers in WORKER_COUNTS[1:]:
        pairs, stats = matcher_for(
            "jaccard", 0.5, num_workers=num_workers, min_rows_per_worker=0
        ).match_values_with_stats(source, target)
        assert pairs == serial_pairs
        assert stats.candidates == serial_stats.candidates


def test_matcher_sharded_config_path_identical():
    """The config-driven sharded path (num_workers > 1 with the small-input
    tuning disabled) equals the serial matcher through the public API."""
    import random

    rng = random.Random(13)
    source = [
        " ".join(rng.choice(VOCAB) for _ in range(rng.randint(0, 5)))
        for _ in range(90)
    ]
    target = [
        " ".join(rng.choice(VOCAB) for _ in range(rng.randint(0, 5)))
        for _ in range(90)
    ]
    serial = matcher_for("cosine", 0.5).match_values(source, target)
    for num_workers in WORKER_COUNTS[1:]:
        sharded = matcher_for(
            "cosine", 0.5, num_workers=num_workers, min_rows_per_worker=0
        ).match_values(source, target)
        assert sharded == serial


_HASHSEED_PROBE = """
import json, random, sys
sys.path.insert(0, {src_path!r})
from repro.matching.row_matcher import MatchingConfig
from repro.matching.setsim import SetSimRowMatcher, build_token_order
from repro.matching.tokenize import whitespace_tokens

rng = random.Random(3)
vocab = [f"t{{i}}" for i in range(12)]
source = [" ".join(rng.choice(vocab) for _ in range(rng.randint(0, 6)))
          for _ in range(60)]
target = [" ".join(rng.choice(vocab) for _ in range(rng.randint(0, 6)))
          for _ in range(60)]
order = build_token_order(
    [whitespace_tokens(v) for v in source + target]
)
matcher = SetSimRowMatcher(MatchingConfig(
    engine="setsim", setsim_threshold=0.5, num_workers=1))
pairs = matcher.match_values(source, target)
print(json.dumps({{
    "order": sorted(order.items()),
    "pairs": [[p.source_row, p.target_row] for p in pairs],
}}))
"""


def test_token_order_and_matches_hash_seed_independent():
    """Byte-identical token ordering and match list across PYTHONHASHSEED
    values — the df tie-break by token (and dict.fromkeys dedup) is what
    makes this hold; a set-iteration anywhere in the path would break it."""
    src_path = str(Path(__file__).resolve().parents[2] / "src")
    script = _HASHSEED_PROBE.format(src_path=src_path)
    outputs = []
    for seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    payload = json.loads(outputs[0])
    assert payload["pairs"], "probe produced no matches; test is vacuous"


# --------------------------------------------------------------------------
# The posting filter: sound, order-preserving, monotone in the threshold.
# --------------------------------------------------------------------------

TOKEN_IDS = st.lists(
    st.integers(min_value=0, max_value=11), min_size=1, max_size=8, unique=True
).map(sorted)


@settings(max_examples=200)
@given(
    probe=TOKEN_IDS,
    candidate=TOKEN_IDS,
    measure=st.sampled_from(
        [("jaccard", t) for t in JACCARD_THRESHOLDS]
        + [("cosine", t) for t in COSINE_THRESHOLDS]
        + [("overlap", t) for t in OVERLAP_THRESHOLDS]
    ),
)
def test_posting_filter_never_prunes_a_match(probe, candidate, measure):
    """Probing at the first shared token, a pair that clears the threshold
    is always admitted: the filter is conservative, never lossy."""
    similarity, threshold = measure
    shared = sorted(set(probe) & set(candidate))
    overlap = len(shared)
    score = similarity_score(overlap, len(probe), len(candidate), similarity)
    if overlap == 0 or score < threshold:
        return
    size_low, size_high = size_bounds(len(probe), similarity, threshold)
    admitted = filter_token_postings(
        array("i", [5]),
        array("i", [candidate.index(shared[0])]),
        array("i", [len(candidate)]),
        probe_size=len(probe),
        probe_position=probe.index(shared[0]),
        similarity=similarity,
        threshold=threshold,
        size_low=size_low,
        size_high=size_high,
    )
    assert admitted == [5]


@st.composite
def _posting_cases(draw):
    count = draw(st.integers(min_value=0, max_value=40))
    rows = array("i", range(0, 3 * count, 3))
    sizes = array(
        "i", [draw(st.integers(min_value=1, max_value=10)) for _ in range(count)]
    )
    positions = array(
        "i",
        [draw(st.integers(min_value=0, max_value=size - 1)) for size in sizes],
    )
    probe_size = draw(st.integers(min_value=1, max_value=10))
    probe_position = draw(st.integers(min_value=0, max_value=probe_size - 1))
    similarity = draw(st.sampled_from(["jaccard", "cosine", "overlap"]))
    if similarity == "overlap":
        thresholds = sorted(
            float(draw(st.integers(min_value=1, max_value=5))) for _ in range(2)
        )
    else:
        thresholds = sorted(
            draw(st.sampled_from([1.0 / 3.0, 0.5, 0.7, 1.0])) for _ in range(2)
        )
    size_low = draw(st.integers(min_value=1, max_value=6))
    size_high = draw(st.integers(min_value=size_low, max_value=12))
    return rows, positions, sizes, dict(
        probe_size=probe_size,
        probe_position=probe_position,
        similarity=similarity,
        size_low=size_low,
        size_high=size_high,
    ), thresholds


@settings(deadline=None, max_examples=120)
@given(case=_posting_cases())
def test_posting_filter_keeps_order_and_size_window(case):
    rows, positions, sizes, kwargs, (low_threshold, high_threshold) = case
    loose = filter_token_postings(
        rows, positions, sizes, threshold=low_threshold, **kwargs
    )
    strict = filter_token_postings(
        rows, positions, sizes, threshold=high_threshold, **kwargs
    )
    size_of = dict(zip(rows, sizes))
    for admitted in (loose, strict):
        # Admitted rows keep posting order and lie inside the size window.
        assert admitted == [row for row in rows if row in set(admitted)]
        assert all(
            kwargs["size_low"] <= size_of[row] <= kwargs["size_high"]
            for row in admitted
        )
    # A higher threshold can only prune more.
    assert set(strict) <= set(loose)


# --------------------------------------------------------------------------
# The exact verification's overlap count.
# --------------------------------------------------------------------------


@given(
    left=st.lists(
        st.integers(min_value=0, max_value=300), max_size=120, unique=True
    ).map(sorted),
    right=st.lists(
        st.integers(min_value=0, max_value=300), max_size=120, unique=True
    ).map(sorted),
)
def test_intersect_count_matches_set_intersection(left, right):
    expected = len(set(left) & set(right))
    assert intersect_count(array("i", left), array("i", right)) == expected
