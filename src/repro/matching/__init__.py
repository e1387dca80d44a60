"""Row matching: finding candidate joinable row pairs (Section 4.2.1).

Before transformations can be learned, the system needs candidate
(source, target) row pairs.  This package implements two matching engines
(select one with ``MatchingConfig.engine``, the ``--matcher`` CLI flag, or
the ``REPRO_MATCHER`` environment variable):

* :mod:`repro.matching.ngrams` — character n-gram extraction,
* :mod:`repro.matching.index` — the packed inverted index (sorted-array
  postings, O(1) row-frequency table, build-time representative n-grams,
  stop-gram pruning) plus the packed exact-value index used by the joiner,
* :mod:`repro.matching.row_matcher` — Algorithm 1 (representative-n-gram
  matching), the engine-selecting :func:`~repro.matching.row_matcher.
  create_row_matcher` factory, plus a golden matcher that replays a known
  ground truth,
* :mod:`repro.matching.setsim` — the prefix-filtered set-similarity engine
  (global token-frequency ordering, prefix/position filters, exact
  verification; PPJoin-style),
* :mod:`repro.matching.tokenize` — the whitespace/q-gram tokenizers of the
  setsim engine.

The seed's nested-loop matcher, the executable specification of
:class:`~repro.matching.row_matcher.NGramRowMatcher`, lives with the tests
as ``tests/oracles/matching.py``, together with the paper's definitions of
Inverse Row Frequency (IRF) and the representative score (Rscore) that
:meth:`~repro.matching.index.InvertedIndex.representatives` fuses.
"""

from repro.matching.index import InvertedIndex, ValueIndex
from repro.matching.ngrams import ngram_set
from repro.matching.row_matcher import (
    MATCHER_ENGINES,
    SETSIM_SIMILARITIES,
    GoldenRowMatcher,
    MatchingConfig,
    NGramRowMatcher,
    RowMatcher,
    create_row_matcher,
)
from repro.matching.setsim import SetSimRowMatcher, SetSimStats
from repro.matching.tokenize import (
    TOKENIZERS,
    qgram_tokens,
    tokenizer_for,
    whitespace_tokens,
)

__all__ = [
    "GoldenRowMatcher",
    "InvertedIndex",
    "MATCHER_ENGINES",
    "MatchingConfig",
    "NGramRowMatcher",
    "RowMatcher",
    "SETSIM_SIMILARITIES",
    "SetSimRowMatcher",
    "SetSimStats",
    "TOKENIZERS",
    "ValueIndex",
    "create_row_matcher",
    "ngram_set",
    "qgram_tokens",
    "tokenizer_for",
    "whitespace_tokens",
]
