"""Baseline methods the paper compares against.

* :mod:`repro.baselines.autojoin` — a reimplementation of Auto-Join
  (Zhu et al., VLDB 2017) as described in Section 3.2: subset sampling plus
  recursive best-unit search with backtracking over the full parameter space.
* :mod:`repro.baselines.fuzzyjoin` — an Auto-FuzzyJoin-style similarity join
  (Li et al., SIGMOD 2021): no transformations, joins rows whose textual
  similarity clears an automatically chosen threshold.
* :mod:`repro.baselines.setsimjoin` — exact prefix-filtered set-similarity
  joins (py_stringsimjoin-style): jaccard/cosine/overlap joins of rows whose
  token-set similarity clears a fixed threshold, backed by the setsim
  matching engine.
"""

from repro.baselines.autojoin import AutoJoin, AutoJoinConfig, AutoJoinResult
from repro.baselines.fuzzyjoin import AutoFuzzyJoin
from repro.baselines.setsimjoin import (
    SetSimJoinResult,
    cosine_join,
    jaccard_join,
    overlap_join,
    set_similarity_join_values,
)

__all__ = [
    "AutoFuzzyJoin",
    "AutoJoin",
    "AutoJoinConfig",
    "AutoJoinResult",
    "SetSimJoinResult",
    "cosine_join",
    "jaccard_join",
    "overlap_join",
    "set_similarity_join_values",
]
