"""Acceptance suite: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  The two MovieLens-1M criteria need the raw ratings file; they skip
with an explicit reason when it is absent (this sandbox has no network), and
run when ``$SFREC_ML1M`` or ``$SFREC_DATA_DIR`` points at a copy.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import sfrec.autodiff as ad
import sfrec.layers as ly
from sfrec.config import ExperimentConfig
from sfrec.data import NegativeSampler, group_by_user, make_cluster_dataset, parse_ml1m, phase_split
from sfrec.exchange import (
    ExchangeMessage,
    MessageKind,
    RoundTracker,
    StaleRoundError,
    UploadScheduler,
    decode_message,
    encode_message,
)
from sfrec.fast import DeviceSession, FastModel
from sfrec.harness import prepare_data, run_lifecycle, write_results
from sfrec.metrics import RankingResult, hr_at_k, mrr, ndcg_at_k, rank_candidates
from sfrec.slow import SlowModel


def _ml1m_ratings():
    direct = os.environ.get("SFREC_ML1M")
    if direct and Path(direct).exists():
        return Path(direct)
    candidates = []
    root = os.environ.get("SFREC_DATA_DIR")
    if root:
        candidates += [Path(root) / "ml-1m" / "ratings.dat", Path(root) / "ratings.dat"]
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "ml-1m" / "ratings.dat")
    for c in candidates:
        if c.exists():
            return c
    return None


ML1M = _ml1m_ratings()
needs_ml1m = pytest.mark.skipif(
    ML1M is None,
    reason="MovieLens-1M ratings.dat not found (this sandbox has no network access); "
    "place it at $SFREC_DATA_DIR/ml-1m/ratings.dat or point $SFREC_ML1M at it",
)


# --------------------------------------------------------------------------
# 1. Gradient suite: every layer at 1e-4, both interactive graphs at 1e-3,
#    64-bit, under 60 seconds.


def test_acceptance_gradient_suite():
    started = time.perf_counter()
    dim, n_items = 4, 10
    rng = np.random.default_rng(0)

    emb = ly.EmbeddingTable(n_items, dim, rng, name="emb")
    gru = ly.GruCell(dim, dim, rng, name="gru")
    att = ly.Mlp([4 * dim, 6, 1], rng, name="att")
    fuse = ly.Mlp([2 * dim, 6, 1], rng, name="fuse")
    head = ly.Mlp([2 * dim, 6, 4, 1], rng, name="head")

    x = ad.constant(rng.normal(size=(1, dim)))
    h = ad.constant(rng.normal(size=(1, dim)))
    hist = ad.constant(rng.normal(size=(3, dim)))
    tgt = ad.constant(rng.normal(size=(1, dim)))
    r1 = ad.constant(rng.normal(size=(1, dim)))
    r2 = ad.constant(rng.normal(size=(1, dim)))
    feats = ad.constant(rng.normal(size=(1, 2 * dim)))

    layer_cases = [
        ("embedding", lambda: ad.sum_all(emb.lookup([1, 3, 1])), emb.params()),
        ("gru-step", lambda: ad.sum_all(gru.step(x, h)), gru.params()),
        ("attention", lambda: ad.sum_all(ly.din_attention(att, hist, tgt)), att.params()),
        ("fusion", lambda: ad.sum_all(ly.target_aware_fusion(r1, r2, tgt, fuse)), fuse.params()),
        ("head", lambda: ly.predict_head(head, feats), head.params()),
    ]
    for name, loss_fn, params in layer_cases:
        report = ad.grad_check(loss_fn, params, tolerance=1e-4)
        assert report.passed, f"{name} layer failed gradient check:\n{report}"

    memory = np.full((1, dim), 0.1)
    slow = SlowModel(n_items, dim, np.random.default_rng(1), interactive=True, head_hidden=(6, 4))
    report = ad.grad_check(
        lambda: slow.loss([1, 5, 3, 2], [4], [1], neg_memory=memory), slow.params(), tolerance=1e-3
    )
    assert report.passed, f"slow interactive graph failed:\n{report}"

    fast = FastModel(n_items, dim, np.random.default_rng(2), interactive=True, head_hidden=(6, 4))
    fast.sync_rows(np.arange(n_items), np.random.default_rng(3).normal(scale=0.1, size=(n_items, dim)))
    prior = {"r_n": np.full((1, dim), 0.2), "r_t": np.full((1, dim), -0.1)}
    report = ad.grad_check(
        lambda: fast.loss([1, 5, 3], [2, 7], [4], [1], prior=prior), fast.params(), tolerance=1e-3
    )
    assert report.passed, f"fast interactive graph failed:\n{report}"

    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"gradient suite took {elapsed:.1f}s, budget is 60s"


# --------------------------------------------------------------------------
# 2. Metric oracle suite: 1e4 random results vs an independent sort-based
#    oracle and brute-force aggregate recomputation, within 1e-12.


def _sort_oracle_rank(candidates, scores):
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], candidates[i]))
    return order.index(0) + 1


def test_acceptance_metric_oracle_suite():
    rng = np.random.default_rng(42)
    results = []
    for _ in range(10_000):
        ids = rng.choice(5_000, size=101, replace=False).tolist()
        scores = np.round(rng.normal(size=101), 1)  # coarse grid forces ties
        lookup = dict(zip(ids, scores.tolist()))
        res = rank_candidates(
            lambda c: np.array([lookup[i] for i in c]), user=0, positive=ids[0], negatives=ids[1:]
        )
        assert res.rank == _sort_oracle_rank(ids, scores.tolist())
        results.append(res)

    for k in (1, 5, 10, 50, 101):
        brute_hr = sum(1 for r in results if r.rank <= k) / len(results)
        brute_ndcg = sum(
            ((2 ** (1 if r.rank <= k else 0)) - 1) / math.log2(r.rank + 1) for r in results
        ) / len(results)
        assert abs(hr_at_k(results, k) - brute_hr) < 1e-12
        assert abs(ndcg_at_k(results, k) - brute_ndcg) < 1e-12
    brute_mrr = sum(1.0 / r.rank for r in results) / len(results)
    assert abs(mrr(results) - brute_mrr) < 1e-12

    # closed-form spot value: rank 3 inside the cutoff gives exactly 1/log2(4)
    spot = [RankingResult(user=0, positive=9, rank=3)]
    assert ndcg_at_k(spot, 3) == 0.5
    assert ndcg_at_k(spot, 5) == 0.5


# --------------------------------------------------------------------------
# 3. Reduction: interactive fast wiring with zero prior and zero projections
#    reproduces the independent wiring's pre-head representations bit-exactly.


def test_acceptance_reduction_to_independent_fast():
    dim, n_items = 16, 40
    interactive = FastModel(n_items, dim, np.random.default_rng(11), interactive=True)
    plain = FastModel(n_items, dim, np.random.default_rng(11), interactive=False)
    rows = np.random.default_rng(12).normal(scale=0.1, size=(n_items, dim))
    for model in (interactive, plain):
        model.sync_rows(np.arange(n_items), rows)
    for p in (interactive.init_click_w, interactive.init_click_b,
              interactive.init_expose_w, interactive.init_expose_b):
        p.data = np.zeros_like(p.data)
    zero_prior = {"r_n": np.zeros((1, dim)), "r_t": np.zeros((1, dim))}

    clicked, exposed, cand = [3, 17, 8, 25], [5, 30, 2], 21
    got, want = DeviceSession(interactive), DeviceSession(plain)
    got.advance(clicked, exposed, zero_prior)
    want.advance(clicked, exposed)
    assert np.array_equal(got.r_click, want.r_click)
    assert np.array_equal(got.r_expose, want.r_expose)


# --------------------------------------------------------------------------
# 4. Exchange suite: 1e3 round-trips, exact scheduler cadence, stale-round
#    rejection.


def test_acceptance_exchange_suite():
    rng = np.random.default_rng(5)
    schemas = {
        MessageKind.INTEREST_DOWN: ("r_n", "r_t"),
        MessageKind.NEGATIVE_MEMORY_UP: ("r2_hat",),
        MessageKind.GRU_N_SYNC: ly.GruCell.GATE_NAMES,
    }
    for i in range(1_000):
        kind = MessageKind(int(rng.integers(0, 3)))
        dim = int(rng.integers(1, 48))
        # the sync carries a GRU cell: (dim, dim) w_* and u_*, (1, dim) b_*
        rows = {name: dim if kind == MessageKind.GRU_N_SYNC and name[0] != "b" else 1 for name in schemas[kind]}
        payload = {name: rng.normal(size=(n, dim)).astype(np.float32) for name, n in rows.items()}
        msg = ExchangeMessage(
            kind=kind, user=int(rng.integers(0, 2**32)), round=int(rng.integers(0, 2**20)), payload=payload
        )
        assert decode_message(encode_message(msg)) == msg, f"round-trip broke at message {i}"

    scheduler = UploadScheduler(threshold=5)
    rounds = [scheduler.tick(user=1) for _ in range(23)]
    uploads = [i + 1 for i, r in enumerate(rounds) if r]
    assert uploads == [5, 10, 15, 20]
    assert [r for r in rounds if r] == [1, 2, 3, 4]

    tracker = RoundTracker()
    tracker.accept(user=1, round_no=3)
    with pytest.raises(StaleRoundError):
        tracker.accept(user=1, round_no=3)
    with pytest.raises(StaleRoundError):
        tracker.accept(user=1, round_no=2)
    tracker.accept(user=1, round_no=4)


# --------------------------------------------------------------------------
# 5. Split suite: full MovieLens-1M parse counts and phase arithmetic.


@pytest.mark.ml1m
@needs_ml1m
def test_acceptance_ml1m_split_suite():
    started = time.perf_counter()
    interactions, user_map, item_map = parse_ml1m(ML1M)
    assert len(user_map) == 6_040
    assert len(item_map) == 3_706
    assert len(interactions) == 1_000_209

    grouped = group_by_user(interactions)
    for user, rows in grouped.items():
        stamps = [it.timestamp for it in rows]
        assert stamps == sorted(stamps), f"user {user} interactions out of time order"

    split = phase_split(interactions, min_len=20)
    assert split.users, "split retained no users"
    for user, us in split.users.items():
        assert len(us.fast) == 5, f"user {user} fast phase is {len(us.fast)}"
        assert len(us.test) == 5, f"user {user} test phase is {len(us.test)}"
        assert len(us.slow) >= 10

    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"split suite took {elapsed:.1f}s, budget is 120s"


# --------------------------------------------------------------------------
# 6. Learning sanity: planted clusters, both components reach training HR@1
#    above 0.9 within 20 epochs for every seed, under 5 minutes.


def _training_hr1(model, split, sampler, users, phase):
    results = []
    for u in users:
        seq = getattr(split.users[u], phase)
        j = len(seq) - 1
        negs = [int(n) for n in sampler.draw(u, phase, j, 50)]
        if phase == "slow":
            fn = lambda ids: model.score_candidates(seq[:j], ids)
        else:
            fn = lambda ids: model.score_candidates(seq[:j], [], ids)
        results.append(rank_candidates(fn, u, seq[j], negs))
    return hr_at_k(results, 1)


def _epoch(model, opt, split, sampler, users, phase, order_rng, loss_fn):
    count = 0
    for u in order_rng.permutation(users):
        seq = getattr(split.users[int(u)], phase)
        for j in range(1, len(seq)):
            negative = int(sampler.draw(int(u), phase, j, 1)[0])
            for target, label in ((seq[j], 1), (negative, 0)):
                with ad.tape() as t:
                    t.backward(loss_fn(model, seq[:j], target, label))
                count += 1
                if count >= 256:
                    opt.step(scale=1 / count)
                    opt.zero_grad()
                    count = 0
    if count:
        opt.step(scale=1 / count)
        opt.zero_grad()


def test_acceptance_learning_sanity():
    started = time.perf_counter()
    split = phase_split(make_cluster_dataset(seed=0))
    users = sorted(split.users)
    assert len(users) == 200 and split.vocab_size == 100
    sampler = NegativeSampler(split, split.vocab_size, seed=99)

    for seed in (0, 1, 2):
        slow = SlowModel(split.vocab_size, 32, np.random.default_rng(seed), interactive=False, dtype=np.float32)
        opt = ad.Adam(slow.params(), lr=5e-3, l2_weight=1e-4)
        order_rng = np.random.default_rng(seed + 1000)
        slow_hr = 0.0
        for _ in range(20):
            _epoch(slow, opt, split, sampler, users, "slow", order_rng,
                   lambda m, ctx, tgt, lab: m.loss(ctx, [tgt], [lab]))
            slow_hr = _training_hr1(slow, split, sampler, users, "slow")
            if slow_hr > 0.9:
                break
        assert slow_hr > 0.9, f"seed {seed}: slow component stuck at training HR@1 = {slow_hr:.3f}"

        # the device model rides on cloud-trained embeddings, as deployed
        fast = FastModel(split.vocab_size, 32, np.random.default_rng(seed + 1), interactive=False, dtype=np.float32)
        ids = np.arange(split.vocab_size)
        fast.sync_rows(ids, slow.embedding.lookup_np(ids))
        opt = ad.Adam(fast.params(), lr=5e-3, l2_weight=1e-4)
        order_rng = np.random.default_rng(seed + 2000)
        fast_hr = 0.0
        for _ in range(20):
            _epoch(fast, opt, split, sampler, users, "fast", order_rng,
                   lambda m, ctx, tgt, lab: m.loss(ctx, [], [tgt], [lab]))
            fast_hr = _training_hr1(fast, split, sampler, users, "fast")
            if fast_hr > 0.9:
                break
        assert fast_hr > 0.9, f"seed {seed}: fast component stuck at training HR@1 = {fast_hr:.3f}"

    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"learning sanity took {elapsed:.1f}s, budget is 300s"


# --------------------------------------------------------------------------
# 7. Directional collaboration: on 1,000 MovieLens users the exchange must
#    help on average: strict fast-side gain, non-strict slow-side gain.


def _mean_hr5(records, component):
    vals = [r.value for r in records if r.component == component and r.metric == "hr" and r.k == 5]
    return float(np.mean(vals))


@pytest.mark.ml1m
@pytest.mark.slow
@needs_ml1m
def test_acceptance_directional_collaboration():
    started = time.perf_counter()
    base = dict(
        dataset=str(ML1M),
        data_format="ml1m",
        dim=32,
        lr=5e-3,
        slow_epochs=4,
        fast_epochs=3,
        patience=1,
        seeds=3,
        n_eval_neg=100,
        max_users=1_000,
        max_positions_per_user=16,
        precision="float32",
        record_timing=False,
    )
    means = {}
    for variant in ("independent", "f2s", "s2f_full"):
        config = ExperimentConfig(variant=variant, **base).validate()
        outcome = run_lifecycle(config, prepare_data(config))
        means[variant] = {c: _mean_hr5(outcome.records, c) for c in ("slow", "fast")}

    fast_delta = means["s2f_full"]["fast"] - means["independent"]["fast"]
    slow_delta = means["f2s"]["slow"] - means["independent"]["slow"]
    assert fast_delta > 0, (
        f"bidirectional exchange did not help the fast component: "
        f"{means['s2f_full']['fast']:.4f} vs {means['independent']['fast']:.4f}"
    )
    assert slow_delta >= 0, (
        f"uploads hurt the slow component: "
        f"{means['f2s']['slow']:.4f} vs {means['independent']['slow']:.4f}"
    )

    elapsed = time.perf_counter() - started
    assert elapsed < 2_700, f"directional check took {elapsed / 60:.1f} min, budget is 45 min"


# --------------------------------------------------------------------------
# 8. Determinism: identical config and seed give a byte-identical results CSV.


def test_acceptance_determinism(tmp_path):
    config = ExperimentConfig(
        data_format="cluster",
        variant="s2f_full",
        dim=16,
        lr=5e-3,
        slow_epochs=2,
        fast_epochs=2,
        patience=1,
        seeds=2,
        n_eval_neg=50,
        max_users=30,
        max_positions_per_user=8,
        precision="float32",
        record_timing=False,
    ).validate()
    prepared = prepare_data(config)
    blobs = []
    for i in range(2):
        outcome = run_lifecycle(config, prepared)
        path = tmp_path / f"run{i}.csv"
        write_results(outcome.records, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
