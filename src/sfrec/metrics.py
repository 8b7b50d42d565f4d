"""Sampled ranking evaluation: rank of a positive among sampled negatives,
one ranking at a time or a user's rankings as one table.

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
    """Rank each positive item against its sampled negatives.

    One ranking: ``positive`` is an id and ``negatives`` an id list or
    integer array; ``score_fn`` maps the candidate id array (positive first)
    to a score array, and a RankingResult with the positive's 1-based rank
    comes back.  ``k`` rankings of one user: ``positive`` is a sequence of
    ``k`` ids and ``negatives`` a ``(k, n)`` table, row i the negatives of
    positive i; ``score_fn`` maps the ``(k, 1 + n)`` candidate table (each
    row its positive first) to a score table, and a list of ``k``
    RankingResults comes back.  Either way ``score_fn`` is called once.  A
    candidate set with a duplicate, a ``(k, n)`` table of other than one row
    per positive, scores of another shape than the candidates' or a
    non-finite score is a ValueError.
    """
    one = np.ndim(positive) == 0
    positives = np.asarray([positive] if one else positive, dtype=np.int64)
    table = np.asarray(negatives, dtype=np.int64)
    table = table[None] if one else table
    if table.ndim != 2 or len(table) != len(positives):
        raise ValueError(f"{len(positives)} positives want a ({len(positives)}, n) negatives table, got {table.shape}")
    candidates = np.concatenate((positives[:, None], table), axis=1)
    ordered = np.sort(candidates, axis=1)
    if np.any(ordered[:, 1:] == ordered[:, :-1]):  # sorted, a duplicate pair sits side by side
        raise ValueError("candidate set contains duplicates")
    asked = candidates[0] if one else candidates
    scores = np.asarray(score_fn(asked), dtype=float)
    if scores.shape != asked.shape:
        raise ValueError(f"score_fn returned scores of shape {scores.shape} for candidates of shape {asked.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("score_fn returned a non-finite score")
    scores = scores.reshape(candidates.shape)
    pos_score = scores[:, :1]
    higher = np.count_nonzero(scores[:, 1:] > pos_score, axis=1)
    tied_before = np.count_nonzero((scores[:, 1:] == pos_score) & (candidates[:, 1:] < candidates[:, :1]), axis=1)
    ranks = (1 + higher + tied_before).tolist()
    if one:
        return RankingResult(user=user, positive=positive, rank=ranks[0])
    return [RankingResult(user=user, positive=p, rank=r) for p, r in zip(positives.tolist(), ranks)]


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
