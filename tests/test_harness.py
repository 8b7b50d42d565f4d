"""Lifecycle orchestration tests on the synthetic cluster corpus.

Configs here are intentionally tiny (few users, one or two epochs) so the
whole file stays fast; learning quality is covered elsewhere.
"""

import copy
import dataclasses
import gc
import math
import re
import weakref
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfrec import autodiff as ad
from sfrec import harness
from sfrec import layers as ly
from sfrec.config import ExperimentConfig
from sfrec.exchange import MessageKind, StaleRoundError, decode_message, encode_message
from sfrec.fast import DeviceSession, ExposureMemory, FastModel
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
from sfrec.layers import GruCell
from sfrec.metrics import rank_candidates
from sfrec.slow import SlowModel


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


@pytest.mark.parametrize("variant", ["f2s", "s2f_full"])
def test_each_user_uploads_rounds_one_and_two_of_their_exposure_log(monkeypatch, cluster_prepared, variant):
    # 5 fast events with threshold 2: uploads at events 2 and 4, each after its event's exposures
    split, users = cluster_prepared
    run = _SeedRun(tiny_config(variant=variant, threshold=2), 0, split, users)
    export, exported = ExposureMemory.export, []

    def spied_export(memory, model, shown):
        exported.append((memory, len(shown)))
        return export(memory, model, shown)

    monkeypatch.setattr(ExposureMemory, "export", spied_export)
    run.train_slow()
    if variant == "s2f_full":
        for user in users:
            run._download(user, round_no=0)
    run.serve_and_train_fast()
    up, down, sync = MessageKind.NEGATIVE_MEMORY_UP, MessageKind.INTEREST_DOWN, MessageKind.GRU_N_SYNC
    want = [(down, 0), (sync, 0), (up, 1), (down, 1), (sync, 1), (up, 2), (down, 2), (sync, 2)]
    for user in users:
        sent = [(m.kind, m.round) for m in run.messages if m.user == user]
        assert [r for kind, r in sent if kind == up] == [1, 2]
        assert sent == (want if variant == "s2f_full" else [(up, 1), (up, 2)])
        assert [n for memory, n in exported if memory is run.memories[user]] == [2, 4]
    assert len(exported) == 2 * len(users)


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
    bad = run.slow.head.params()[-1]
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
# evaluation encodes every device context at once, and scores each user's rankings in one tail


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
    """(result, scores) per fast ranking, each running ``forward`` through score_candidates.

    ``forward`` reads the cloud's current rows, as evaluation's reads do, so a
    cloud row changed since the device's last read is seen where evaluation sees it.
    """
    out = []
    for user in run.users:
        us = run.split.users[user]
        exposed = run._window([i for step in run.exposure_log[user] for i in step])
        for j, positive in enumerate(us.test):
            negs = [int(n) for n in run.sampler.draw(user, "test", j, run.config.n_eval_neg)]
            clicked = run._window(us.fast + us.test[:j])
            scores = run.fast.score_candidates(clicked, exposed, [positive, *negs], prior=run.priors.get(user))
            out.append((rank_candidates(lambda ids: scores, user, positive, negs), scores))
    return out


# a batched product rounds differently from a one-row one: evaluation's device
# scores stay this close to the per-ranking reference, and its ranks equal it
SCORE_BOUND = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}


def assert_evaluation_matches_reference(run):
    """Fast rankings of ``run.evaluate()`` equal the per-ranking reference,
    run on a copy of ``run`` as it stood before, and every score lies within
    ``SCORE_BOUND`` of it; each user's rankings score in one tail call."""
    reference = per_ranking_reference(copy.deepcopy(run))
    scored = []
    score = FastModel.score_states

    def spy(model, *args):
        scored.append(score(model, *args))
        return scored[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FastModel, "score_states", spy)
        _, fast_results = run.evaluate()
    assert fast_results == [result for result, _ in reference]
    assert len(scored) == len(run.users)
    got, want = np.concatenate(scored), np.concatenate([scores for _, scores in reference])
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= SCORE_BOUND[want.dtype]


@pytest.mark.parametrize("max_history_len", [3, 7, 30])
@pytest.mark.parametrize("variant", ["independent", "f2s", "s2f_full"])
def test_per_user_evaluation_equals_per_ranking_reencode(cluster_prepared, variant, max_history_len):
    # 5 fast clicks per user: at 3 and 7 the click window slides during the test phase
    assert_evaluation_matches_reference(trained_run(cluster_prepared, variant=variant, max_history_len=max_history_len))


def test_evaluation_reencodes_clicks_whose_device_rows_a_sync_changed(cluster_prepared):
    # cloud rows changed after the device last read them: each user's first
    # fast click, which is also their third test item, so the read of
    # evaluation's windows returns a changed row in some click windows
    split, users = copy.deepcopy(cluster_prepared)
    run = trained_run((split, users), variant="independent")
    firsts = sorted({split.users[u].fast[0] for u in users})
    for user in users:
        split.users[user].test[2] = split.users[user].fast[0]
    table = run.slow.embedding.table
    stale = {row.tobytes() for row in table.data[firsts]}
    table.data[firsts] += 0.01
    encoded, encode = [], run.fast.gru_click.encode_np

    def spied_encode(seqs, init):
        encoded.extend(row.tobytes() for row in seqs.reshape(-1, seqs.shape[-1]))
        return encode(seqs, init)

    run.fast.gru_click.encode_np = spied_encode
    assert_evaluation_matches_reference(run)
    # the click GRU encoded every changed row as the cloud now holds it, and never the row it replaced
    assert {row.tobytes() for row in table.data[firsts]} <= set(encoded)
    assert not stale & set(encoded)


def per_ranking_slow_reference(run):
    """Each cloud ranking, scored alone through ``score_candidates``."""
    out = []
    for user in run.users:
        us = run.split.users[user]
        history = run._window(us.slow)
        for j, positive in enumerate(us.test):
            negs = [int(n) for n in run.sampler.draw(user, "test", j, run.config.n_eval_neg)]
            scores = run.slow.score_candidates(history, [positive, *negs], neg_memory=run._memory(user))
            out.append(rank_candidates(lambda ids: scores, user, positive, negs))
    return out


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    variant=st.sampled_from(["independent", "f2s", "s2f_full"]),
    max_history_len=st.integers(2, 30),
    expose_k=st.integers(0, 4),
    precision=st.sampled_from(["float32", "float64"]),
)
def test_evaluation_ranks_equal_the_per_ranking_reference(
    cluster_prepared, variant, max_history_len, expose_k, precision
):
    run = trained_run(
        cluster_prepared, variant=variant, max_history_len=max_history_len, expose_k=expose_k, precision=precision
    )
    slow_want = per_ranking_slow_reference(copy.deepcopy(run))
    fast_want = [result for result, _ in per_ranking_reference(copy.deepcopy(run))]
    assert run.evaluate() == (slow_want, fast_want)


@pytest.fixture(scope="module")
def cluster_prepared_40():
    return prepare_data(tiny_config(max_users=40))


def evaluation_encode_calls(run):
    """Each device GRU's ``encode_np`` calls in ``run.evaluate()``, which must make no ``DeviceSession``."""
    calls = Counter()
    for name, cell in (("click", run.fast.gru_click), ("expose", run.fast.gru_expose)):

        def counted(seqs, init, encode=cell.encode_np, name=name):
            calls[name] += 1
            return encode(seqs, init)

        cell.encode_np = counted

    def no_session(*args):
        raise AssertionError("evaluation made a DeviceSession")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DeviceSession, "__init__", no_session)
        run.evaluate()
    return calls


@pytest.mark.parametrize("max_history_len", [3, 7, 30])
@pytest.mark.parametrize("variant", ["independent", "f2s", "s2f_full"])
def test_evaluation_steps_each_gru_once_per_consumed_item(
    cluster_prepared, cluster_prepared_40, variant, max_history_len
):
    # each GRU folds all of evaluation's windows of one length in one call, however many users there are
    run = trained_run(cluster_prepared, variant=variant, max_history_len=max_history_len)
    lengths = {"click": set(), "expose": set()}
    for user in run.users:
        us = run.split.users[user]
        lengths["expose"].add(len(run._window([i for step in run.exposure_log[user] for i in step])))
        lengths["click"].update(len(run._window(us.fast + us.test[:j])) for j in range(len(us.test)))
    calls = evaluation_encode_calls(run)
    for name, seen in lengths.items():
        assert 1 <= calls[name] <= len(seen - {0})
    run_40 = trained_run(cluster_prepared_40, variant=variant, max_history_len=max_history_len, max_users=40)
    assert len(run_40.users) == 40
    assert evaluation_encode_calls(run_40) == calls


# ---------------------------------------------------------------------------
# evaluation scores each user's cloud candidates in one pass


def spy_slow_scoring(patch):
    """The candidate ids of every ``SlowModel.score_candidates`` call from here on."""
    calls, score = [], SlowModel.score_candidates

    def spy(model, seq_ids, candidate_ids, neg_memory=None):
        calls.append(np.array(candidate_ids))
        return score(model, seq_ids, candidate_ids, neg_memory)

    patch.setattr(SlowModel, "score_candidates", spy)
    return calls


def union_of_test_items_and_draws(run, user):
    """Sorted ids of ``user``'s test items and every one of their test negatives."""
    us = run.split.users[user]
    drawn = [run.sampler.draw(user, "test", j, run.config.n_eval_neg).tolist() for j in range(len(us.test))]
    return sorted(set(us.test).union(*drawn))


def test_the_cloud_scores_each_user_once_per_evaluation(cluster_prepared):
    run = trained_run(cluster_prepared, variant="f2s")
    with pytest.MonkeyPatch.context() as patch:
        calls = spy_slow_scoring(patch)
        run.evaluate()
    assert len(calls) == len(run.users)
    for ids, user in zip(calls, run.users):
        assert ids.tolist() == union_of_test_items_and_draws(run, user)


@pytest.mark.parametrize("variant", ["independent", "s2f_full"])
def test_replay_scores_each_user_once_on_the_cloud(cluster_prepared, variant):
    cfg = tiny_config(variant=variant)
    out = run_lifecycle(cfg, cluster_prepared, collect_state=True)
    arrays, exposures = out.states[0]
    with pytest.MonkeyPatch.context() as patch:
        calls = spy_slow_scoring(patch)
        evaluate_from_state(cfg, 0, cluster_prepared, arrays, out.messages[0], exposures)
    run = _SeedRun(cfg, 0, *cluster_prepared)  # the same sampler seed, so the same test draws
    assert [ids.tolist() for ids in calls] == [union_of_test_items_and_draws(run, u) for u in run.users]


def per_ranking_slow_reference(run):
    """The result of each cloud ranking, each scored by its own ``score_candidates`` call."""
    out = []
    for user in run.users:
        us = run.split.users[user]
        slow_score = partial(run.slow.score_candidates, run._window(us.slow), neg_memory=run._memory(user))
        for j, positive in enumerate(us.test):
            negs = run.sampler.draw(user, "test", j, run.config.n_eval_neg).tolist()
            out.append(rank_candidates(slow_score, user, positive, negs))
    return out


@pytest.mark.parametrize(
    "variant, max_history_len, precision",
    [(v, m, "float32") for v in ("independent", "f2s", "s2f_full") for m in (3, 30)] + [("s2f_full", 30, "float64")],
)
def test_per_user_cloud_pass_ranks_as_per_ranking_scoring(cluster_prepared, variant, max_history_len, precision):
    # the pass's rows may round apart from a per-ranking call's in the last bits: ranks are compared, not scores
    run = trained_run(cluster_prepared, variant=variant, max_history_len=max_history_len, precision=precision)
    reference = per_ranking_slow_reference(run)
    slow_results, _ = run.evaluate()
    assert slow_results == reference
    assert len({r.rank for r in slow_results}) > 1  # the rankings are not all one trivial rank


@pytest.mark.parametrize("variant", ["independent", "f2s", "s2f_full"])
def test_every_row_a_device_read_returns_equals_the_clouds_at_that_read(monkeypatch, cluster_prepared, variant):
    # threshold 2: f2s and s2f_full refresh the cloud table twice per user
    init, lookup, runs, reads = _SeedRun.__init__, FastModel.lookup_np, [], []

    def spied_init(self, *args):
        init(self, *args)
        runs.append(self)

    def checked(fast, ids):
        rows = lookup(fast, ids)
        assert fast is runs[-1].fast
        np.testing.assert_array_equal(rows, runs[-1].slow.embedding.lookup_np(ids))
        reads.append(len(rows))
        return rows

    monkeypatch.setattr(_SeedRun, "__init__", spied_init)
    monkeypatch.setattr(FastModel, "lookup_np", checked)
    out = run_lifecycle(tiny_config(variant=variant, threshold=2), cluster_prepared)
    assert out.diagnostics[0]["refreshes"] == (0 if variant == "independent" else 2 * len(cluster_prepared[1]))
    assert len(runs) == 1 and sum(reads) > 0


def test_a_copied_run_fetches_from_its_own_cloud_table(cluster_prepared):
    split, users = cluster_prepared
    run = _SeedRun(tiny_config(), 0, split, users)
    held = run.slow.embedding.table.data[3].copy()
    twin = copy.deepcopy(run)
    twin.slow.embedding.table.data[3] += 0.01
    np.testing.assert_array_equal(twin.fast.lookup_np([3])[0], twin.slow.embedding.table.data[3])
    np.testing.assert_array_equal(run.fast.lookup_np([3])[0], held)
    np.testing.assert_array_equal(run.slow.embedding.table.data[3], held)


def test_a_run_is_freed_without_the_cycle_collector(cluster_prepared):
    split, users = cluster_prepared
    gc.disable()
    try:
        run = weakref.ref(_SeedRun(tiny_config(), 0, split, users))
        assert run() is None  # reference counting alone freed it: the run makes no reference cycle
    finally:
        gc.enable()


@pytest.mark.parametrize("bad", [-1, "vocab"])
def test_an_out_of_vocabulary_read_fetches_nothing(cluster_prepared, bad):
    split, users = cluster_prepared
    run = _SeedRun(tiny_config(), 0, split, users)
    fast, fetched, fetch = run.fast, [], run.fast.fetch
    fast.fetch = lambda idx: fetched.append(idx) or fetch(idx)
    bad = split.vocab_size if bad == "vocab" else bad
    reads = {
        "lookup_np": lambda: fast.lookup_np([5, 9, bad]),
        "forward": lambda: fast.score_candidates([5], [9], [3, bad]),
        "advance": lambda: DeviceSession(fast).advance([5, 9], [bad]),
        "score": lambda: DeviceSession(fast).score([5, 9, bad]),
        "export": lambda: ExposureMemory(fast.dim).export(fast, [[5, 9, bad]]),
    }
    for name, read in reads.items():
        with pytest.raises(ly.OutOfVocabularyError, match=f"item id {bad} "):
            read()
        assert not fetched, name


@pytest.mark.parametrize("variant", ["independent", "f2s", "s2f_full"])
def test_each_serving_event_and_training_segment_syncs_exactly_the_rows_it_reads(cluster_prepared, variant):
    # threshold 2: an upload, whose read belongs to it and not to its event, falls inside some events
    split, users = cluster_prepared
    cfg = tiny_config(variant=variant, threshold=2)
    run = _SeedRun(cfg, 0, split, users)
    twin = copy.deepcopy(run.serving_rng)  # replays serving's draws
    run.train_slow()
    if variant == "s2f_full":
        for user in users:
            run._download(user, round_no=0)
    frames, events, segments, uploads = [], [], [], []
    fetch, serve, upload, segment_loss = run.fast.fetch, run._serve_event, run._upload, run._fast_segment_loss

    def spied_fetch(idx):
        if frames:
            frames[-1] += [int(i) for i in idx]
        return fetch(idx)

    def spied_upload(user, round_no):
        shown = [i for step in run.exposure_log[user][run.memories[user].steps :] for i in step]
        frames.append([])
        upload(user, round_no)
        uploads.append(frames.pop())
        assert uploads[-1] == shown  # the items the upload's export encodes, since the last export

    def spied_event(user, j, *rest):
        us, pool = split.users[user], run.sampler.complement(user)
        drawn = twin.choice(pool, size=min(cfg.pool_size, pool.size), replace=False)
        clicked, exposed = run._window(us.fast[:j]) or us.slow[-1:], run._exposed(user)
        frames.append([])
        serve(user, j, *rest)
        events.append(sorted(frames.pop()))
        assert events[-1] == sorted(drawn.tolist() + clicked + exposed)
        assert len(events[-1]) <= cfg.pool_size + 2 * cfg.max_history_len

    def spied_loss(user, segment):
        frames.append([])
        loss = segment_loss(user, segment)
        segments.append(sorted(frames.pop()))
        last = segment[-1]
        assert segments[-1] == sorted([c for ctx in segment for c in ctx.candidates] + last.clicked + last.exposed)
        return loss

    run.fast.fetch, run._upload, run._serve_event, run._fast_segment_loss = (
        spied_fetch, spied_upload, spied_event, spied_loss
    )
    run.serve_and_train_fast()
    assert len(events) == sum(len(split.users[u].fast) for u in users)
    assert segments and run.counts["uploads"] == len(uploads) == (0 if variant == "independent" else 2 * len(users))


@pytest.mark.parametrize("expose_k", [0, 4])
@pytest.mark.parametrize("variant", ["independent", "f2s", "s2f_full"])
def test_every_serving_step_shows_at_most_expose_k_never_clicked_items(cluster_prepared, variant, expose_k):
    split, users = cluster_prepared
    cfg = tiny_config(variant=variant, expose_k=expose_k)
    _, exposures = run_lifecycle(cfg, cluster_prepared, collect_state=True).states[0]
    for user in users:
        pool = set(range(split.vocab_size)).difference(split.users[user].all_items())
        steps = exposures[user]
        assert len(steps) == len(split.users[user].fast)
        for step in steps:
            assert len(step) == len(set(step)) == min(expose_k, cfg.pool_size)
            assert set(step) <= pool  # neither this event's click nor any other of the user's
        if expose_k:
            assert len({i for step in steps for i in step}) > expose_k  # the draw varies across events


def test_evaluation_keeps_no_test_negatives(cluster_prepared):
    run = trained_run(cluster_prepared, variant="independent")
    run.evaluate()
    n = run.config.n_eval_neg
    assert not [key for key in run.sampler._tables if key[1] == "test"]
    for user in run.users:
        # one generator per (user, test, n): per row, the unseen items with the n smallest keys, in key order
        pool, tests = run.sampler.complement(user), len(run.split.users[user].test)
        key = np.random.SeedSequence(entropy=run.sampler.seed, spawn_key=(2, user, n))
        keys = np.random.default_rng(key).random((tests, pool.size))
        want = pool[np.argsort(keys, axis=1)[:, :n]]
        np.testing.assert_array_equal(run.sampler.table(user, "test", n), want)
        for j in range(tests):
            np.testing.assert_array_equal(run.sampler.draw(user, "test", j, n), want[j])


# ---------------------------------------------------------------------------
# serving scores through each user's carried device session


@pytest.mark.parametrize("max_history_len", [3, 30])
@pytest.mark.parametrize("variant", ["independent", "f2s", "s2f_full"])
def test_every_serving_event_scores_as_a_per_event_reencode(monkeypatch, cluster_prepared, variant, max_history_len):
    split, users = cluster_prepared
    # threshold 2: uploads, and so refreshes, fall between one user's events
    cfg = tiny_config(variant=variant, max_history_len=max_history_len, threshold=2)
    run = _SeedRun(cfg, 0, split, users)
    run.train_slow()
    if variant == "s2f_full":
        for user in users:
            run._download(user, round_no=0)
    pending, reencode_rows, rows, in_session = [], [], Counter(), [False]
    serve_event, score = run._serve_event, DeviceSession.score

    def spied_event(user, j, session, round_no):
        pending.append((user, j))
        serve_event(user, j, session, round_no)
        assert not pending, "a serving event scored nothing"

    def spied_score(session, ids):
        got = score(session, ids)
        if pending:  # the serving event's own scoring, not the reference's below
            user, j = pending.pop()
            us = run.split.users[user]
            clicked, exposed = run._window(us.fast[:j]) or us.slow[-1:], run._exposed(user)
            reencode_rows.append(len(clicked) + len(exposed))
            assert np.array_equal(got, run.fast.score_candidates(clicked, exposed, ids, prior=run.priors.get(user)))
        return got

    class CountedSession(DeviceSession):
        """Serving's sessions: their advances count the rows they encode, which
        leaves out the rows an upload's ``ExposureMemory.export`` encodes."""

        def advance(self, *args):
            in_session[0] = True
            try:
                super().advance(*args)
            finally:
                in_session[0] = False

    monkeypatch.setattr(harness, "DeviceSession", CountedSession)
    for name, cell in (("click", run.fast.gru_click), ("expose", run.fast.gru_expose)):

        def counted(seq, init, encode=cell.encode_np, name=name):
            if in_session[0]:
                rows[name] += seq.shape[0]
            return encode(seq, init)

        cell.encode_np = counted
    monkeypatch.setattr(DeviceSession, "score", spied_score)
    run._serve_event = spied_event
    run.serve_and_train_fast()
    assert len(reencode_rows) == sum(len(split.users[u].fast) for u in users)
    assert 0 < sum(rows.values()) < sum(reencode_rows)


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


@pytest.mark.parametrize("n_in, hidden, name, shape", [(4, 4, "b_h", (1, 4)), (4, 8, "w_h", (4, 8))])
def test_replay_rejects_a_sync_whose_gates_are_not_dim_wide(cluster_prepared, s2f_state, n_in, hidden, name, shape):
    cfg, arrays, messages, exposures = s2f_state
    index = min(i for i, m in enumerate(messages) if m.kind == MessageKind.GRU_N_SYNC)
    gates = GruCell(n_in, hidden, np.random.default_rng(0), dtype=np.float32).export_gates()
    bad = decode_message(encode_message(dataclasses.replace(messages[index], payload=gates)))  # a valid cell on the wire
    altered = list(messages)
    altered[index] = bad
    want = f"message {index} (GRU_N_SYNC) for user {bad.user}: payload '{name}' has shape {shape}"
    with pytest.raises(LifecycleError, match=re.escape(want)):
        evaluate_from_state(cfg, 0, cluster_prepared, arrays, altered, exposures)


def test_replay_rejects_a_repeated_upload_round(cluster_prepared, s2f_state):
    cfg, arrays, messages, exposures = s2f_state
    index = min(i for i, m in enumerate(messages) if m.kind == MessageKind.NEGATIVE_MEMORY_UP)
    upload = messages[index]
    repeated = messages[: index + 1] + [upload] + messages[index + 1 :]
    want = f"user {upload.user}: round {upload.round} <= last seen {upload.round}"
    with pytest.raises(StaleRoundError, match=re.escape(want)):
        evaluate_from_state(cfg, 0, cluster_prepared, arrays, repeated, exposures)


def outsider(prepared):
    """A user of the corpus that the run left out."""
    split, users = prepared
    return next(u for u in sorted(split.users) if u not in users)


@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda kind: kind.name)
def test_replay_rejects_a_message_for_a_user_outside_the_run(cluster_prepared, s2f_state, kind):
    cfg, arrays, messages, exposures = s2f_state
    index = min(i for i, m in enumerate(messages) if m.kind == kind)
    stranger = outsider(cluster_prepared)
    altered = list(messages)
    altered[index] = dataclasses.replace(messages[index], user=stranger)
    want = f"message {index} ({kind.name}) for user {stranger}, who is not one of the run's users"
    with pytest.raises(LifecycleError, match=re.escape(want)):
        evaluate_from_state(cfg, 0, cluster_prepared, arrays, altered, exposures)


def test_replay_rejects_exposures_for_a_user_outside_the_run(cluster_prepared, s2f_state):
    cfg, arrays, messages, exposures = s2f_state
    stranger = outsider(cluster_prepared)
    altered = {**exposures, stranger: [[1, 2]] * len(cluster_prepared[0].users[stranger].fast)}
    want = f"the exposures have a stream for user {stranger}, who is not one of the run's users"
    with pytest.raises(LifecycleError, match=re.escape(want)):
        evaluate_from_state(cfg, 0, cluster_prepared, arrays, messages, altered)


@pytest.mark.parametrize("change", [-1, 1], ids=["truncated", "extended"])
def test_replay_rejects_a_stream_without_one_step_per_fast_event(cluster_prepared, s2f_state, change):
    cfg, arrays, messages, exposures = s2f_state
    user = cluster_prepared[1][-1]
    log = exposures[user]
    altered = {**exposures, user: log[:-1] if change < 0 else log + log[-1:]}
    events = len(cluster_prepared[0].users[user].fast)
    assert len(log) == events
    want = f"user {user}'s exposures hold {events + change} serving steps, for {events} fast-phase events"
    with pytest.raises(LifecycleError, match=re.escape(want)):
        evaluate_from_state(cfg, 0, cluster_prepared, arrays, messages, altered)


def test_f2s_replay_scores_every_ranking_as_live(monkeypatch, cluster_prepared):
    # f2s uploads at every event but never downloads: replay rebuilds the
    # device rows evaluation reads from the checkpoint's cloud table
    cfg = tiny_config(variant="f2s", threshold=1)
    scores = []

    def recording(score_fn, *args):
        def scored(ids):
            scores.append(np.array(score_fn(ids)))
            return scores[-1]

        return rank_candidates(scored, *args)

    monkeypatch.setattr(harness, "rank_candidates", recording)
    out = run_lifecycle(cfg, cluster_prepared, collect_state=True)
    live, scores[:] = list(scores), []
    arrays, exposures = out.states[0]
    evaluate_from_state(cfg, 0, cluster_prepared, arrays, out.messages[0], exposures)
    # each call ranks one user's test items on one component, a score row per ranking
    assert len(scores) == len(live) == 2 * len(cluster_prepared[1])
    rows = np.concatenate(scores), np.concatenate(live)
    assert len(rows[0]) == len(rows[1]) == 2 * sum(len(cluster_prepared[0].users[u].test) for u in cluster_prepared[1])
    for i, (got, want) in enumerate(zip(*rows)):
        assert np.array_equal(got, want), f"ranking {i}"


@pytest.mark.parametrize("name", ["slow/emb", "fast/all/head/b2"])
def test_replay_names_a_tensor_the_checkpoint_lacks(tmp_path, cluster_prepared, s2f_state, name):
    cfg, arrays, messages, exposures = s2f_state
    path = tmp_path / "seed0.ckpt"
    ad.save_checkpoint(path, {k: v for k, v in arrays.items() if k != name})
    loaded = ad.load_checkpoint(path)
    assert set(arrays) - set(loaded) == {name}
    with pytest.raises(ad.CheckpointError, match=f"no tensor {name!r}"):
        evaluate_from_state(cfg, 0, cluster_prepared, loaded, messages, exposures)


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
