import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfrec.metrics import RankingResult, hr_at_k, mrr, ndcg_at_k, rank_candidates


def rng(seed=0):
    return np.random.default_rng(seed)


def result(rank):
    return RankingResult(user=0, positive=0, rank=rank)


def sort_oracle_rank(candidates, scores, positive):
    """Rank by full sort on (score desc, id asc)."""
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], candidates[i]))
    return order.index(candidates.index(positive)) + 1


# ---------------------------------------------------------------------------
# rank_candidates


def test_strictly_highest_positive_ranks_first():
    scores = {0: 0.99, 1: 0.5, 2: 0.1}
    r = rank_candidates(lambda ids: [scores[i] for i in ids], 7, 0, [1, 2])
    assert r == RankingResult(user=7, positive=0, rank=1)


def test_strictly_lowest_positive_ranks_last():
    negatives = list(range(1, 101))
    r = rank_candidates(lambda ids: [0.0 if i == 0 else 1.0 for i in ids], 0, 0, negatives)
    assert r.rank == 101


def test_rank_matches_sort_oracle_on_random_scores():
    r = rng(1)
    for _ in range(300):
        n = int(r.integers(2, 30))
        candidates = r.choice(1000, size=n, replace=False).tolist()
        # quantized scores force plenty of ties
        scores = {c: float(r.integers(0, 5)) / 4.0 for c in candidates}
        positive = candidates[0]
        got = rank_candidates(lambda ids: [scores[i] for i in ids], 0, positive, candidates[1:])
        assert got.rank == sort_oracle_rank(candidates, [scores[c] for c in candidates], positive)


def test_ties_break_by_candidate_id_ascending():
    flat = lambda ids: [1.0] * len(ids)
    assert rank_candidates(flat, 0, 5, [9, 12]).rank == 1
    assert rank_candidates(flat, 0, 5, [2, 9]).rank == 2
    assert rank_candidates(flat, 0, 5, [2, 3]).rank == 3


def as_list(ids):
    return list(ids)


def as_array(ids):
    return np.array(ids, dtype=np.int64)


def as_sampler_array(ids):
    """An int64 array that cannot be written, as ``NegativeSampler.draw`` returns."""
    out = as_array(ids)
    out.flags.writeable = False
    return out


NEGATIVE_FORMS = [as_list, as_array, as_sampler_array]


def check_heavy_ties(form):
    """Ranks among 301 candidates with ~75 ties per score level, negatives passed as ``form`` makes them."""
    r = rng(11)
    ids = r.permutation(2000)[:301].tolist()
    table = dict(zip(ids, r.integers(0, 4, size=301) / 4.0))  # four score levels: ~75 ties each
    score = lambda cands: [table[c] for c in cands]
    tied = 0
    for p in range(0, 301, 15):
        positive, negatives = ids[p], form(ids[:p] + ids[p + 1 :])
        higher = sum(table[c] > table[positive] for c in negatives)
        tied_lower_id = sum(table[c] == table[positive] and c < positive for c in negatives)
        tied += tied_lower_id
        got = rank_candidates(score, 3, positive, negatives)
        assert got == RankingResult(user=3, positive=positive, rank=1 + higher + tied_lower_id)
        assert got.rank == sort_oracle_rank([positive, *negatives], score([positive, *negatives]), positive)
    assert tied > 100  # the tie-break decided many of these ranks


def test_heavy_ties_among_301_candidates_follow_the_rank_definition():
    check_heavy_ties(as_list)


@pytest.mark.parametrize("form", [as_array, as_sampler_array])
def test_heavy_ties_among_301_array_candidates_follow_the_rank_definition(form):
    check_heavy_ties(form)


def test_duplicate_candidates_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        rank_candidates(lambda ids: [0.0] * len(ids), 0, 5, [5, 6])
    with pytest.raises(ValueError, match="duplicate"):
        rank_candidates(lambda ids: [0.0] * len(ids), 0, 5, [6, 6])


@pytest.mark.parametrize("form", [as_array, as_sampler_array])
def test_duplicate_array_candidates_rejected(form):
    with pytest.raises(ValueError, match="duplicate"):
        rank_candidates(lambda ids: [0.0] * len(ids), 0, 5, form([5, 6]))  # the positive among the negatives
    with pytest.raises(ValueError, match="duplicate"):
        rank_candidates(lambda ids: [0.0] * len(ids), 0, 5, form([6, 6]))


@pytest.mark.parametrize("form", [list, as_array, as_sampler_array])
def test_duplicate_candidates_apart_in_the_input_rejected(form):
    scored = []
    negatives = [9, 2, 14, 7, 3, 11, 2, 8]  # the pair of 2s has five ids between them, and 3 and 8 sort between
    with pytest.raises(ValueError, match="duplicate"):
        rank_candidates(lambda ids: scored.append(ids) or [0.0] * len(ids), 0, 5, form(negatives))
    with pytest.raises(ValueError, match="duplicate"):
        rank_candidates(lambda ids: scored.append(ids) or [0.0] * len(ids), 0, 4, form([9, 4, 1, 6, 12]))
    assert not scored  # refused before any scoring
    assert rank_candidates(lambda ids: [0.0] * len(ids), 0, 5, form([9, 2, 14, 7])).rank == 2


def test_list_and_array_negatives_rank_alike():
    r = rng(12)
    ids = r.permutation(400)[:51].tolist()
    table = dict(zip(ids, r.integers(0, 6, size=51) / 6.0))  # ties, so the id tie-break counts too
    seen = []

    def score(cands):
        seen.append(np.array(cands))
        return np.array([table[int(c)] for c in cands])

    for p in range(0, 51, 5):
        positive, negatives = ids[p], ids[:p] + ids[p + 1 :]
        got = [rank_candidates(score, 4, positive, form(negatives)) for form in NEGATIVE_FORMS]
        assert got[0] == got[1] == got[2]
        assert type(got[0].rank) is int
        for cands in seen[-3:]:  # every form hands the scorer the same id array, positive first
            assert cands.dtype == np.int64
            np.testing.assert_array_equal(cands, [positive, *negatives])


def test_rank_invariant_under_monotone_score_transforms():
    r = rng(2)
    candidates = r.choice(500, size=21, replace=False).tolist()
    base = {c: float(r.normal()) for c in candidates}
    positive = candidates[0]
    transforms = [lambda s: s, lambda s: np.exp(s), lambda s: 3.0 * s + 10.0]
    ranks = {
        t(0.0): rank_candidates(
            lambda ids, t=t: [t(base[i]) for i in ids], 0, positive, candidates[1:]
        ).rank
        for t in transforms
    }
    assert len(set(ranks.values())) == 1


# ---------------------------------------------------------------------------
# spot values


def test_hr_spot_values():
    assert hr_at_k([result(1), result(1)], 5) == 1.0
    assert hr_at_k([result(3), result(7)], 5) == 0.5


def test_ndcg_spot_values():
    assert ndcg_at_k([result(1)], 5) == 1.0
    assert ndcg_at_k([result(3)], 3) == pytest.approx(0.5, abs=1e-15)  # 1/log2(4)
    assert ndcg_at_k([result(6)], 5) == 0.0


def test_mrr_spot_values():
    assert mrr([result(1)]) == 1.0
    assert mrr([result(1), result(4)]) == pytest.approx(0.625, abs=1e-15)


def test_empty_results_and_bad_k_rejected():
    with pytest.raises(ValueError):
        hr_at_k([], 5)
    with pytest.raises(ValueError):
        ndcg_at_k([], 5)
    with pytest.raises(ValueError):
        mrr([])
    with pytest.raises(ValueError):
        hr_at_k([result(1)], 0)


# ---------------------------------------------------------------------------
# brute-force agreement on bulk random results


def test_metrics_match_brute_force_on_10k_random_results():
    r = rng(3)
    results = [result(int(p)) for p in r.integers(1, 102, size=10_000)]
    for k in (1, 5, 10, 50, 101):
        hits = 0
        ndcg_sum = 0.0
        rr_sum = 0.0
        for res in results:
            if res.rank <= k:
                hits += 1
                ndcg_sum += 1.0 / math.log2(res.rank + 1)
            rr_sum += 1.0 / res.rank
        n = len(results)
        assert abs(hr_at_k(results, k) - hits / n) < 1e-12
        assert abs(ndcg_at_k(results, k) - ndcg_sum / n) < 1e-12
        assert abs(mrr(results) - rr_sum / n) < 1e-12


# ---------------------------------------------------------------------------
# order properties


@given(st.lists(st.integers(1, 101), min_size=1, max_size=200), st.integers(1, 100))
@settings(max_examples=100, deadline=None)
def test_hr_non_decreasing_in_k_and_saturates(ranks, k):
    results = [result(p) for p in ranks]
    assert hr_at_k(results, k) <= hr_at_k(results, k + 1)
    assert hr_at_k(results, 101) == 1.0


@given(st.lists(st.integers(1, 101), min_size=1, max_size=200), st.integers(1, 101))
@settings(max_examples=100, deadline=None)
def test_ndcg_bounded_by_hr_and_mrr_bounds(ranks, k):
    results = [result(p) for p in ranks]
    assert ndcg_at_k(results, k) <= hr_at_k(results, k) + 1e-12
    assert hr_at_k(results, 1) <= mrr(results) <= 1.0
