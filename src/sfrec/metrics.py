"""Sampled ranking evaluation: rank of one positive among sampled negatives.

The rank counts candidates with strictly higher score; equal scores break by
candidate id ascending, so evaluation never depends on float tie luck or on
input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RankingResult", "rank_candidates", "hr_at_k", "ndcg_at_k", "mrr"]


@dataclass(frozen=True)
class RankingResult:
    user: int
    positive: int
    rank: int  # 1-based position among all candidates


def rank_candidates(score_fn, user, positive, negatives):
    """Rank the positive item against sampled negatives.

    ``negatives`` is an id list or integer array.  ``score_fn`` maps the
    candidate id array (positive first) to a score array (one call for the
    whole set).  Returns a RankingResult with the positive's 1-based rank.
    """
    candidates = np.concatenate(([positive], np.asarray(negatives, dtype=np.int64)))
    ordered = np.sort(candidates)
    if np.any(ordered[1:] == ordered[:-1]):  # sorted, a duplicate pair sits side by side
        raise ValueError("candidate set contains duplicates")
    scores = np.asarray(score_fn(candidates), dtype=float)
    pos_score = scores[0]
    higher = np.count_nonzero(scores[1:] > pos_score)
    tied_before = np.count_nonzero((scores[1:] == pos_score) & (candidates[1:] < positive))
    return RankingResult(user=user, positive=positive, rank=int(1 + higher + tied_before))


def _check(results, k=1):
    if not results:
        raise ValueError("no ranking results to aggregate")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def hr_at_k(results, k):
    """Fraction of results whose positive landed in the top k."""
    _check(results, k)
    return sum(1 for r in results if r.rank <= k) / len(results)


def ndcg_at_k(results, k):
    """Mean of (2^hit - 1) / log2(rank + 1) with a single graded positive."""
    _check(results, k)
    total = 0.0
    for r in results:
        gain = (2 ** (1 if r.rank <= k else 0)) - 1
        total += gain / math.log2(r.rank + 1)
    return total / len(results)


def mrr(results):
    """Mean reciprocal rank of the positive."""
    _check(results)
    return sum(1.0 / r.rank for r in results) / len(results)
