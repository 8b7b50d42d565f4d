"""Lifecycle orchestration tests on the synthetic cluster corpus.

Configs here are intentionally tiny (few users, one or two epochs) so the
whole file stays fast; learning quality is covered elsewhere.
"""

import copy
import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest

from sfrec import autodiff as ad
from sfrec.config import ExperimentConfig
from sfrec.exchange import MessageKind
from sfrec.harness import (
    LifecycleError,
    RunRecord,
    _SeedRun,
    evaluate_from_state,
    prepare_data,
    read_results,
    run_lifecycle,
    write_results,
)
from sfrec.metrics import rank_candidates


def tiny_config(**overrides):
    base = dict(
        data_format="cluster",
        variant="independent",
        dim=8,
        lr=5e-3,
        batch_size=64,
        slow_epochs=1,
        fast_epochs=1,
        patience=0,
        seeds=1,
        n_eval_neg=20,
        max_users=8,
        max_positions_per_user=4,
        precision="float32",
        record_timing=False,
    )
    base.update(overrides)
    cfg = ExperimentConfig(**base)
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def cluster_prepared():
    cfg = tiny_config()
    return prepare_data(cfg)


def test_prepare_data_subsample_is_stable(cluster_prepared):
    again = prepare_data(tiny_config())
    assert again[1] == cluster_prepared[1]
    assert len(cluster_prepared[1]) == 8


def test_independent_run_sends_no_messages(cluster_prepared):
    out = run_lifecycle(tiny_config(), cluster_prepared)
    assert out.messages[0] == []
    assert out.diagnostics[0] == {"uploads": 0, "refreshes": 0, "downloads": 0}


def test_bidirectional_uploads_once_per_user_at_threshold_five(cluster_prepared):
    cfg = tiny_config(variant="s2f_full", threshold=5)
    out = run_lifecycle(cfg, cluster_prepared)
    n_users = len(cluster_prepared[1])
    # 5 fast events per user and a count threshold of 5: exactly one upload
    assert out.diagnostics[0]["uploads"] == n_users
    assert out.diagnostics[0]["refreshes"] == n_users
    # one initial download per user plus one after each upload
    assert out.diagnostics[0]["downloads"] == 2 * n_users
    kinds = [m.kind for m in out.messages[0]]
    assert kinds.count(MessageKind.NEGATIVE_MEMORY_UP) == n_users
    assert kinds.count(MessageKind.INTEREST_DOWN) == 2 * n_users
    assert kinds.count(MessageKind.GRU_N_SYNC) == 2 * n_users


def test_upload_count_follows_threshold(cluster_prepared):
    cfg = tiny_config(variant="f2s", threshold=2)
    out = run_lifecycle(cfg, cluster_prepared)
    # 5 fast events with threshold 2 tick over at events 2 and 4
    assert out.diagnostics[0]["uploads"] == 2 * len(cluster_prepared[1])


def test_upload_only_variant_never_downloads(cluster_prepared):
    out = run_lifecycle(tiny_config(variant="f2s"), cluster_prepared)
    kinds = {m.kind for m in out.messages[0]}
    assert kinds == {MessageKind.NEGATIVE_MEMORY_UP}
    assert out.diagnostics[0]["downloads"] == 0


def test_upload_only_kinds_are_a_strict_subset_of_bidirectional(cluster_prepared):
    f2s = run_lifecycle(tiny_config(variant="f2s"), cluster_prepared)
    full = run_lifecycle(tiny_config(variant="s2f_full"), cluster_prepared)
    f2s_kinds = {m.kind for m in f2s.messages[0]}
    full_kinds = {m.kind for m in full.messages[0]}
    assert f2s_kinds < full_kinds


def test_no_uploads_when_event_count_stays_below_threshold(cluster_prepared):
    # every user has 5 fast events; a threshold of 6 is never reached
    out = run_lifecycle(tiny_config(variant="s2f_full", threshold=6), cluster_prepared)
    assert out.diagnostics[0]["uploads"] == 0
    kinds = {m.kind for m in out.messages[0]}
    assert MessageKind.NEGATIVE_MEMORY_UP not in kinds  # only the initial downloads remain


def test_records_cover_every_metric_and_seed(cluster_prepared):
    cfg = tiny_config(seeds=2, eval_ks=[5, 10])
    out = run_lifecycle(cfg, cluster_prepared)
    keys = {(r.component, r.metric, r.k, r.seed) for r in out.records}
    expected = {
        (comp, metric, k, seed)
        for comp in ("slow", "fast")
        for metric, k in (("hr", 5), ("ndcg", 5), ("hr", 10), ("ndcg", 10), ("mrr", 0))
        for seed in (0, 1)
    }
    assert keys == expected
    assert all(0.0 <= r.value <= 1.0 for r in out.records)


def test_wall_seconds_zero_when_timing_disabled(cluster_prepared):
    out = run_lifecycle(tiny_config(), cluster_prepared)
    assert all(r.wall_seconds == 0.0 for r in out.records)


def test_same_config_same_seed_is_byte_identical(tmp_path, cluster_prepared):
    cfg = tiny_config(variant="s2f_full")
    paths = []
    for i in range(2):
        out = run_lifecycle(cfg, cluster_prepared)
        path = tmp_path / f"run{i}.csv"
        write_results(out.records, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_seed_changes_the_numbers(cluster_prepared):
    a = run_lifecycle(tiny_config(), cluster_prepared)
    b = run_lifecycle(tiny_config(base_seed=17), cluster_prepared)
    assert [r.value for r in a.records] != [r.value for r in b.records]


def test_results_round_half_up_to_four_decimals(tmp_path):
    rec = RunRecord("cluster", "independent", "slow", "hr", 5, 0.71655, 0, 0.0)
    path = tmp_path / "r.csv"
    write_results([rec], path)
    lines = path.read_text().splitlines()
    assert lines == [
        "dataset,variant,component,metric,k,value,seed,wall_seconds",
        "cluster,independent,slow,hr,5,0.7166,0,0.0000",
    ]


def test_results_file_round_trips(tmp_path):
    records = [
        RunRecord("cluster", "s2f_full", "fast", "hr", 5, 0.25, 1, 0.0),
        RunRecord("cluster", "s2f_full", "fast", "mrr", 0, 0.125, 0, 0.0),
    ]
    path = tmp_path / "r.csv"
    write_results(records, path)
    back = read_results(path)
    assert len(back) == 2
    assert back[0].metric == "hr" and back[1].metric == "mrr"  # sorted on write
    write_results(back, tmp_path / "r2.csv")
    assert (tmp_path / "r2.csv").read_bytes() == path.read_bytes()


def test_results_reader_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_results(path)


def test_empty_records_refused(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        write_results([], tmp_path / "never.csv")


def test_non_finite_loss_aborts_with_context(cluster_prepared):
    split, users = cluster_prepared
    run = _SeedRun(tiny_config(), 0, split, users)
    # the head's output bias feeds sigmoid directly, so a NaN here reaches the loss
    bad = run.slow.head.mlp.params()[-1]
    bad.data = np.full_like(bad.data, np.nan)
    contexts = []
    real_loss = run.slow.loss

    def spy(context, candidates, labels, **kwargs):
        contexts.append((context, candidates))
        return real_loss(context, candidates, labels, **kwargs)

    run.slow.loss = spy
    with pytest.raises(LifecycleError, match="slow-train.*user") as err:
        run.train_slow()
    user, position = map(int, re.search(r"user (\d+), position (\d+)", str(err.value)).groups())
    # the position is the slow index of the failing context's positive, not an item id
    seq = split.users[user].slow
    assert 1 <= position < len(seq) - 1
    context, candidates = contexts[-1]
    assert candidates[0] == seq[position]
    assert context == seq[:position][-run.config.max_history_len :]


def test_non_finite_refresh_loss_names_the_first_failing_context(cluster_prepared):
    split, users = cluster_prepared
    run = _SeedRun(tiny_config(max_positions_per_user=32), 0, split, users)
    failing = 3  # the context at this slow position has a non-finite loss
    user = next(u for u in users if split.users[u].slow.count(split.users[u].slow[failing]) == 1)
    seq = split.users[user].slow
    calls = []
    real_loss = run.slow.loss

    def spy(history, candidates, labels, **kwargs):
        calls.append(candidates)
        loss = real_loss(history, candidates, labels, **kwargs)
        if seq[failing] in candidates:
            loss.data = np.full_like(loss.data, np.nan)
        return loss

    run.slow.loss = spy
    with pytest.raises(LifecycleError, match=rf"'slow-refresh' at user {user}, position {failing}$"):
        run._refresh_slow(user)
    # one graph for the whole refresh, then single contexts until the failing one
    assert len(calls[0]) == 2 * (len(seq) - 1)
    assert [c[0] for c in calls[1:]] == seq[1 : failing + 1]


def test_non_finite_fast_loss_names_the_first_failing_context(cluster_prepared):
    split, users = cluster_prepared
    run = _SeedRun(tiny_config(), 0, split, users)
    run.train_slow()
    failing = 2  # the context at this click position has a non-finite loss
    prefixes_seen = []
    real_loss = run.fast.loss

    def spy(clicked, exposed, candidates, labels, **kwargs):
        clicks = {c for c, _ in kwargs["prefixes"]}
        prefixes_seen.append(sorted(clicks))
        loss = real_loss(clicked, exposed, candidates, labels, **kwargs)
        if failing in clicks:
            loss.data = np.full_like(loss.data, np.nan)
        return loss

    run.fast.loss = spy
    with pytest.raises(LifecycleError, match=rf"'fast-train' at user {users[0]}, position {failing}$"):
        run.serve_and_train_fast()
    # the first user's contexts (positions 1..4) formed one segment; the
    # single-context reruns stop at the first failing one
    assert prefixes_seen == [[1, 2, 3, 4], [1], [2]]


def test_nan_embedding_row_in_a_refresh_names_the_first_context_reading_it(cluster_prepared):
    split, users = cluster_prepared
    run = _SeedRun(tiny_config(variant="f2s", max_positions_per_user=32), 0, split, users)
    failing = 3  # the positive at this slow position has a NaN embedding row
    user = next(u for u in users if split.users[u].slow.count(split.users[u].slow[failing]) == 1)
    run.slow.embedding.table.data[split.users[user].slow[failing]] = np.nan
    with pytest.raises(LifecycleError, match=rf"'slow-refresh' at user {user}, position {failing}$"):
        run._refresh_slow(user)


@pytest.mark.parametrize("batch_size, n_train_neg", [(4, 1), (6, 2), (5, 1), (7, 2)])
def test_adam_steps_follow_the_example_count(cluster_prepared, batch_size, n_train_neg):
    split, users = cluster_prepared
    cfg = tiny_config(batch_size=batch_size, n_train_neg=n_train_neg)
    per_context = 1 + n_train_neg
    # a step fires at the first context boundary at or past batch_size
    contexts_per_step = math.ceil(batch_size / per_context)
    run = _SeedRun(cfg, 0, split, users)
    run.train_slow()
    slow_contexts = sum(min(len(split.users[u].slow) - 2, cfg.max_positions_per_user) for u in users)
    run.serve_and_train_fast()
    fast_contexts = sum(len(split.users[u].fast) - 1 for u in users)
    for opt, contexts in ((run.opt_slow, slow_contexts), (run.opt_fast, fast_contexts)):
        assert opt.step_count == math.ceil(contexts / contexts_per_step)
        if batch_size % per_context == 0:  # the per-example schedule
            assert opt.step_count == math.ceil(contexts * per_context / batch_size)


def test_lifecycle_needs_users():
    cfg = tiny_config()
    split, _ = prepare_data(cfg)
    with pytest.raises(LifecycleError, match="no users"):
        run_lifecycle(cfg, (split, []))


def fewest_unseen(prepared):
    """The first user with the fewest never-clicked items, and that count."""
    split, users = prepared
    unseen = {u: split.vocab_size - len(set(split.users[u].all_items())) for u in users}
    fewest = min(unseen.values())
    return next(u for u in users if unseen[u] == fewest), fewest


@pytest.mark.parametrize("key", ["n_train_neg", "n_eval_neg"])
def test_an_impossible_negative_count_fails_before_any_training(cluster_prepared, monkeypatch, key):
    user, fewest = fewest_unseen(cluster_prepared)
    cfg = tiny_config(**{key: fewest + 1})

    def train_slow(self):
        raise AssertionError("trained before checking the negative counts")

    monkeypatch.setattr(_SeedRun, "train_slow", train_slow)
    want = f"user {user} has {fewest} unseen items, fewer than {key} = {fewest + 1} negatives"
    with pytest.raises(LifecycleError, match=re.escape(want)):
        run_lifecycle(cfg, cluster_prepared)


def test_slow_validation_loss_is_the_mean_held_out_cross_entropy(cluster_prepared):
    split, users = cluster_prepared
    run = _SeedRun(tiny_config(variant="f2s", precision="float64"), 0, split, users)
    run.slow_memory[users[0]] = np.random.default_rng(3).normal(size=(1, run.config.dim))
    total = 0.0
    for user in users:
        seq = split.users[user].slow
        neg = int(run.sampler.draw(user, "slow", len(seq) - 1, 1)[0])
        scores = run.slow.score_candidates(run._window(seq[:-1]), [seq[-1], neg], neg_memory=run._memory(user))
        p = np.clip(scores, 1e-7, 1.0 - 1e-7)
        total += -np.log(p[0]) - np.log(1.0 - p[1])
    assert run._slow_validation_loss() == pytest.approx(total / (2 * len(users)), rel=1e-12, abs=0)


def test_saved_state_reproduces_training_time_evaluation(cluster_prepared):
    cfg = tiny_config(variant="s2f_full")
    out = run_lifecycle(cfg, cluster_prepared, collect_state=True)
    arrays, exposures = out.states[0]
    redone = evaluate_from_state(cfg, 0, cluster_prepared, arrays, out.messages[0], exposures)
    original = {(r.component, r.metric, r.k): r.value for r in out.records}
    assert {(r.component, r.metric, r.k): r.value for r in redone} == original


# ---------------------------------------------------------------------------
# evaluation encodes each user's device context once


def trained_run(cluster_prepared, **overrides):
    """A seed run taken through both training phases, ready to evaluate."""
    split, users = cluster_prepared
    cfg = tiny_config(**overrides)
    run = _SeedRun(cfg, 0, split, users)
    run.train_slow()
    if cfg.variant == "s2f_full":
        for user in users:
            run._download(user, round_no=0)
    run.serve_and_train_fast()
    return run


def per_ranking_reference(run):
    """(result, scores) per fast ranking, each re-encoding both GRUs through score_candidates.

    Rows sync before each ranking as in evaluation: without downloads (f2s) a
    sync can change device rows that earlier rankings' contexts were built from.
    """
    out = []
    for user in run.users:
        us = run.split.users[user]
        exposed = run._window([i for step in run.exposure_log[user] for i in step])
        for j, positive in enumerate(us.test):
            negs = [int(n) for n in run.sampler.draw(user, "test", j, run.config.n_eval_neg)]
            run._sync_device_rows(negs + [positive])
            clicked = run._window(us.fast + us.test[:j])
            scores = run.fast.score_candidates(clicked, exposed, [positive, *negs], prior=run.priors.get(user))
            out.append((rank_candidates(lambda ids: scores, user, positive, negs), scores))
    return out


def assert_evaluation_matches_reference(run):
    """Fast rankings and every score array of ``run.evaluate()`` equal the per-ranking reference."""
    scored = []
    score_context = run.fast.score_context

    def spy(context, ids):
        scored.append(score_context(context, ids))
        return scored[-1]

    run.fast.score_context = spy
    device_state = run.fast.export_device_state()
    _, fast_results = run.evaluate()
    del run.fast.score_context  # score_candidates scores through it too
    run.fast.load_device_state(*device_state)
    reference = per_ranking_reference(run)
    assert fast_results == [result for result, _ in reference]
    assert len(scored) == len(reference)
    for got, (_, want) in zip(scored, reference):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("max_history_len", [3, 7, 30])
@pytest.mark.parametrize("variant", ["independent", "f2s", "s2f_full"])
def test_per_user_evaluation_equals_per_ranking_reencode(cluster_prepared, variant, max_history_len):
    # 5 fast clicks per user: at 3 and 7 the click window slides during the test phase
    assert_evaluation_matches_reference(trained_run(cluster_prepared, variant=variant, max_history_len=max_history_len))


def test_evaluation_reencodes_clicks_whose_device_rows_a_sync_changed(cluster_prepared):
    # a repeated click: each user's third test item is their first fast click,
    # whose device row is stale, so ranking 2's sync changes a row of its window
    split, users = copy.deepcopy(cluster_prepared)
    run = trained_run((split, users), variant="independent")
    firsts = sorted({split.users[u].fast[0] for u in users})
    for user in users:
        split.users[user].test[2] = split.users[user].fast[0]
    run.fast.sync_rows(firsts, run.slow.embedding.lookup_np(firsts) + 0.01)
    assert_evaluation_matches_reference(run)


@pytest.mark.parametrize("max_history_len", [3, 7, 30])
@pytest.mark.parametrize("variant", ["independent", "s2f_full"])  # no stale device rows to re-sync
def test_evaluation_steps_each_gru_once_per_consumed_item(cluster_prepared, variant, max_history_len):
    run = trained_run(cluster_prepared, variant=variant, max_history_len=max_history_len)
    steps = Counter()
    for name, cell in (("click", run.fast.gru_click), ("expose", run.fast.gru_expose)):

        def counted(seq, init, encode=cell.encode_np, name=name):
            steps[name] += seq.shape[0]
            return encode(seq, init)

        cell.encode_np = counted
    run.evaluate()
    want = Counter()
    per_ranking = 0
    for user in run.users:
        us = run.split.users[user]
        exposed = len(run._window([i for step in run.exposure_log[user] for i in step]))
        want["expose"] += exposed
        want["click"] += min(len(us.fast), max_history_len)
        for j in range(1, len(us.test)):
            slides = len(us.fast) + j > max_history_len
            want["click"] += max_history_len if slides else 1  # a re-encode of the full window, or one step
        per_ranking += sum(exposed + min(len(us.fast) + j, max_history_len) for j in range(len(us.test)))
    assert steps == want
    assert sum(steps.values()) < per_ranking


@pytest.fixture(scope="module")
def s2f_state(cluster_prepared):
    cfg = tiny_config(variant="s2f_full")
    out = run_lifecycle(cfg, cluster_prepared, collect_state=True)
    arrays, exposures = out.states[0]
    return cfg, arrays, out.messages[0], exposures


@pytest.mark.parametrize(
    "kind, name, rows, cols",
    [
        (MessageKind.INTEREST_DOWN, "r_n", 1, 4),
        (MessageKind.INTEREST_DOWN, "r_t", 3, 8),
        (MessageKind.NEGATIVE_MEMORY_UP, "r2_hat", 2, 8),
    ],
)
def test_replay_rejects_a_wrong_shaped_payload_by_message(cluster_prepared, s2f_state, kind, name, rows, cols):
    cfg, arrays, messages, exposures = s2f_state
    assert cfg.dim == 8
    index = max(i for i, m in enumerate(messages) if m.kind == kind)  # a user's latest message of this kind
    bad = messages[index]
    payload = {**bad.payload, name: np.zeros((rows, cols), dtype=np.float32)}
    altered = list(messages)
    altered[index] = dataclasses.replace(bad, payload=payload)
    want = f"message {index} ({kind.name}) for user {bad.user}: payload '{name}' has shape ({rows}, {cols})"
    with pytest.raises(LifecycleError, match=re.escape(want)):
        evaluate_from_state(cfg, 0, cluster_prepared, arrays, altered, exposures)


@pytest.mark.parametrize("name", ["slow/emb", "fast/all/head/b2", "device/emb", "device/synced"])
def test_replay_names_a_tensor_the_checkpoint_lacks(tmp_path, cluster_prepared, s2f_state, name):
    cfg, arrays, messages, exposures = s2f_state
    path = tmp_path / "seed0.ckpt"
    ad.save_checkpoint(path, {k: v for k, v in arrays.items() if k != name})
    loaded = ad.load_checkpoint(path)
    assert set(arrays) - set(loaded) == {name}
    with pytest.raises(ad.CheckpointError, match=f"no tensor {name!r}"):
        evaluate_from_state(cfg, 0, cluster_prepared, loaded, messages, exposures)


@pytest.mark.parametrize("name", ["device/emb", "device/synced"])
def test_replay_rejects_a_device_mirror_of_the_wrong_size(cluster_prepared, s2f_state, name):
    cfg, arrays, messages, exposures = s2f_state
    cut = {**arrays, name: arrays[name][:-1]}
    with pytest.raises(ad.ShapeError, match="device mirror"):
        evaluate_from_state(cfg, 0, cluster_prepared, cut, messages, exposures)


def test_replay_rejects_an_interactive_user_without_a_prior(cluster_prepared, s2f_state):
    cfg, arrays, messages, exposures = s2f_state
    user = cluster_prepared[1][0]
    kept = [m for m in messages if not (m.kind == MessageKind.INTEREST_DOWN and m.user == user)]
    with pytest.raises(LifecycleError, match=f"no INTEREST_DOWN message for user {user}"):
        evaluate_from_state(cfg, 0, cluster_prepared, arrays, kept, exposures)


def test_replay_checks_the_negative_count_before_ranking(cluster_prepared, s2f_state):
    cfg, arrays, messages, exposures = s2f_state
    user, fewest = fewest_unseen(cluster_prepared)
    cfg = dataclasses.replace(cfg, n_eval_neg=fewest + 1)
    want = f"user {user} has {fewest} unseen items, fewer than n_eval_neg = {fewest + 1} negatives"
    with pytest.raises(LifecycleError, match=re.escape(want)):
        evaluate_from_state(cfg, 0, cluster_prepared, arrays, messages, exposures)
