"""Evaluation metrics: row-matching quality, join quality, and coverage.

These implement the measures reported in Tables 1–3 of the paper:
precision / recall / F1 of candidate row pairs against ground truth, the same
for the end-to-end join output, and coverage statistics of transformation
sets.
"""

from repro.evaluation.join_metrics import evaluate_join
from repro.evaluation.matching_metrics import PRF, evaluate_matching, prf
from repro.evaluation.report import format_table

__all__ = [
    "PRF",
    "evaluate_join",
    "evaluate_matching",
    "format_table",
    "prf",
]
