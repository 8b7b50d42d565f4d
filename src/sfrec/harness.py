"""Lifecycle orchestration: slow pre-training, serving with uploads, fast
training, and the asymmetric evaluation pass.

The cadence is linearized per seed:

1. The cloud model trains on slow-phase data (interactive wirings start with
   an all-zero negative memory) with early stopping on each user's last
   slow-phase item.
2. Bidirectional runs download an initial interest snapshot and GRU sync per
   user.
3. Fast-phase events run in order.  On the first epoch each event also plays
   a serving step: it draws ``pool_size`` never-clicked candidates and logs
   the top ``expose_k`` of them by the current device model; (interactive
   runs) the scheduler's ``tick`` returns the round of the upload the event
   triggers, 0 for none.  An upload encodes the steps logged since the last
   one into the negative memory, ships it through the real wire
   codec, and triggers a one-user refresh round on the cloud and
   (bidirectional only) a fresh download.
4. Remaining fast epochs retrain on the logged streams with final priors.
5. Both components are frozen and evaluated: the cloud ranks all five test
   items from the slow-phase context, scoring each user's candidates (the
   test items plus their table of negatives) in one pass; the device
   context grows with each consumed test item.  No user's device context
   depends on another's, so the device encodes every ranking's context at
   once and scores each user's rankings in one scoring-tail call.  Each
   component ranks a user's test items in one ``rank_candidates`` call.

Serving makes one ``DeviceSession`` per user for that user's events.  Each
event advances the session to its windows (a full encode only when the
device model's version or the user's prior changed, else each GRU steps
over the rows its window gained or, where its rows are not those it encoded
plus new ones, re-encodes) and hands ``session.score`` to the exposure
simulation.  Evaluation makes no session: ``FastModel.encode_contexts``
reads every window once, derives each user's init states once and folds
each GRU over all windows of one length in one ``encode_np`` call, and
``FastModel.score_states``, the tail a session's ``score`` runs too, rates
a user's stacked candidates.  The device model holds no rows: its
``fetch`` reads the cloud table at call time, and each of its reads returns
the rows it fetches (a serving event reads both windows, then its
candidates; evaluation all its windows, then each user's candidates; a
training segment its windows and candidates; an upload the shown items it
encodes), so the harness itself sends the device no row.

A training context is a click position with its positive and
``n_train_neg`` negatives.  Training builds one tape per segment: a run of
consecutive contexts, of one user or of several, that see the same
parameters and cloud rows, so their summed loss goes through one batched
forward and backward (the models' ``loss`` take a segment; a single context
is a segment of one).  A segment closes at the context that fires an Adam
step and stays open from one user to the next; on the device side it also
closes where a context's click or exposure window is not a prefix-extension
of its user's last ones, and before a serving event that will upload (its
refresh and download change what the next contexts see).  The cloud
concatenates a segment's users' histories, each candidate with its own
window and negative-memory row; the device stacks each user's windows as
one row of both GRUs' padded stacks, each candidate reading its row's
states at its own prefix lengths.
Adam steps count examples, so the step schedule is the per-example one
whenever ``1 + n_train_neg`` divides ``batch_size``; otherwise a step fires at
the first context boundary at or past ``batch_size``.  Segmenting changes only
the order of float summation, not the steps, the negatives or any rng draw.
The step schedule and the close-at-the-step rule live in ``_Segments``, which
slow epochs, refreshes (one step per refresh) and fast epochs all train
through; the device-side closing checks stay in ``serve_and_train_fast``.
Every exchange message, live or replayed by ``evaluate_from_state``, is
checked and applied in one place, ``_SeedRun._receive``: its user (one of
the run's), its payload widths, the upload round, and what it carries (a
prior, a negative memory, or the exposure GRU's gates).

Everything is deterministic given (config, seed): rngs hang off one seed
sequence per purpose, users iterate in sorted or seeded-permutation order,
and timing capture can be turned off to make result files byte-identical.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import time
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import exchange as ex
from .atomic import write_atomic
from .config import ExperimentConfig
from .data import NegativeSampler, make_cluster_dataset, parse_ml1m, parse_tsv, phase_split, simulate_exposures
from .fast import DeviceSession, ExposureMemory, FastModel
from .metrics import hr_at_k, mrr, ndcg_at_k, rank_candidates
from .slow import SlowModel

__all__ = [
    "RunRecord",
    "LifecycleError",
    "LifecycleOutcome",
    "prepare_data",
    "run_lifecycle",
    "evaluate_from_state",
    "write_results",
    "read_results",
]


@dataclass(frozen=True)
class RunRecord:
    dataset: str
    variant: str
    component: str
    metric: str
    k: int
    value: float
    seed: int
    wall_seconds: float


class LifecycleError(RuntimeError):
    pass


_NO_USERS = "no users survived the split; nothing to run"


@dataclass
class LifecycleOutcome:
    records: list = field(default_factory=list)
    messages: dict = field(default_factory=dict)  # seed -> [ExchangeMessage]
    diagnostics: dict = field(default_factory=dict)  # seed -> counters
    states: dict = field(default_factory=dict)  # seed -> (arrays, exposures), when collected


class _Context(NamedTuple):
    """One training context: the click position, its candidates (positive
    first) and their labels; device contexts also carry their click and
    exposure windows (slow windows follow from the position)."""

    position: int
    candidates: list
    labels: list
    clicked: list = None
    exposed: list = None


def _purpose_rng(seed, purpose):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(purpose,)))


def _purpose_int(seed, purpose):
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(purpose,)).generate_state(1)[0])


def _rows_of(table, idx):
    """The device's fetch: rows of the cloud ``table`` as they are at the call (Adam rebinds ``data``)."""
    return table.data[idx]


class _Segments:
    """One training phase's open segment, its pending ``(user, context)``
    entries (consecutive contexts of one user or of several), and its
    examples since the last Adam step: ``add`` steps, closing the segment
    first, once ``batch_size`` examples are pending."""

    def __init__(self, opt, segment_loss, phase, batch_size):
        self.opt = opt
        self.segment_loss = segment_loss
        self.phase = phase
        self.batch_size = batch_size
        self.pending = []
        self.examples = 0

    def add(self, user, ctx):
        self.pending.append((user, ctx))
        self.examples += len(ctx.candidates)
        if self.examples >= self.batch_size:
            self.step()

    def close(self):
        """Forward and backward the pending entries on one tape.  A
        non-finite loss is traced to the first entry whose own loss is
        non-finite, named by its user and position; a finite one costs no
        more than the check."""
        segment, self.pending = self.pending, []
        if not segment:
            return
        with ad.tape() as t:
            loss = self.segment_loss(segment)
            t.backward(loss)
        if not np.isfinite(loss.item()):
            user, ctx = next((e for e in segment if not np.isfinite(self.segment_loss([e]).item())), segment[0])
            raise LifecycleError(f"non-finite loss in phase {self.phase!r} at user {user}, position {ctx.position}")

    def step(self):
        """Close the segment, then take one Adam step over the examples since the last one."""
        self.close()
        if self.examples:
            self.opt.step(scale=1.0 / self.examples)
            self.opt.zero_grad()
            self.examples = 0


def prepare_data(config):
    """Load, split, and (optionally) subsample users; fixed across seeds.
    A split that no user survives is a LifecycleError."""
    if config.data_format == "cluster":
        interactions = make_cluster_dataset(seed=0)
    elif config.data_format == "ml1m":
        interactions, _, _ = parse_ml1m(config.dataset)
    else:
        interactions, _, _ = parse_tsv(config.dataset)
    split = phase_split(interactions, min_len=config.min_seq_len)
    users = sorted(split.users)
    if not users:
        raise LifecycleError(_NO_USERS)
    if config.max_users and len(users) > config.max_users:
        picker = np.random.default_rng(np.random.SeedSequence(entropy=1_000_003))
        users = sorted(picker.choice(users, size=config.max_users, replace=False).tolist())
    return split, users


class _SeedRun:
    """All mutable state for one (config, seed) lifecycle."""

    def __init__(self, config, seed, split, users):
        self.config = config
        self.seed = seed
        self.split = split
        self.users = users
        self.dtype = np.float32 if config.precision == "float32" else np.float64
        vocab = split.vocab_size
        hidden = config.mlp_hidden()
        # the one reading of the variant: everything else asks the wirings
        slow_interactive = config.variant != "independent"
        fast_interactive = config.variant == "s2f_full"
        self.slow = SlowModel(
            vocab, config.dim, _purpose_rng(seed, 0), interactive=slow_interactive,
            dtype=self.dtype, head_hidden=hidden,
        )
        # a partial over the parameter, not over self (a reference cycle per run) and
        # not a lambda (which deepcopy shares, so a copied run would read this table)
        self.fast = FastModel(
            vocab, config.dim, _purpose_rng(seed, 1), interactive=fast_interactive,
            fetch=functools.partial(_rows_of, self.slow.embedding.table), dtype=self.dtype, head_hidden=hidden,
        )
        self.opt_slow = ad.Adam(self.slow.params(), lr=config.lr, l2_weight=config.l2)
        self.opt_fast = ad.Adam(self.fast.params(), lr=config.lr, l2_weight=config.l2)
        self.sampler = NegativeSampler(split, vocab, seed=_purpose_int(seed, 2))
        self.serving_rng = _purpose_rng(seed, 3)
        self.epoch_rng = _purpose_rng(seed, 4)
        self.scheduler = ex.UploadScheduler(threshold=config.threshold)
        self.tracker = ex.RoundTracker()
        self.messages = []
        self.counts = {"uploads": 0, "refreshes": 0, "downloads": 0}
        self.memories = {u: ExposureMemory(config.dim, dtype=self.dtype) for u in users}
        self.slow_memory = {}  # user -> decoded negative-memory array
        self.priors = {}  # user -> decoded INTEREST_DOWN payload {"r_n", "r_t"}
        self.exposure_log = {u: [] for u in users}

    # -- shared helpers -----------------------------------------------------

    def _window(self, items):
        return items[-self.config.max_history_len :]

    def _memory(self, user):
        """The cloud's latest negative memory of ``user``: zeros before any upload."""
        return self.slow_memory.get(user, np.zeros((1, self.config.dim), dtype=self.dtype))

    def _exposed(self, user, steps=None):
        """The exposure window over ``user``'s first ``steps`` serving steps (None: all of them)."""
        return self._window([i for step in self.exposure_log[user][:steps] for i in step])

    # -- slow training ------------------------------------------------------

    def _slow_segment_loss(self, segment):
        """Summed loss of a segment's consecutive slow contexts in one graph.

        The shared history holds each user's part back to back: the rows some
        of the user's contexts' windows cover (rows between windows that none
        covers are left out).  Every candidate attends to its own context's
        window of it and reads its own user's negative memory.
        """
        span = self.config.max_history_len
        history, windows, candidates, labels, memory = [], [], [], [], []
        for user, entries in itertools.groupby(segment, key=lambda entry: entry[0]):
            contexts = [ctx for _, ctx in entries]
            seq = self.split.users[user].slow
            covered = max(0, contexts[0].position - span)
            skipped = covered - len(history)  # seq index - skipped = index in the shared history
            for ctx in contexts:
                start, end = max(0, ctx.position - span), ctx.position
                if start > covered:
                    skipped += start - covered
                    covered = start
                history += seq[covered:end]
                covered = end
                windows += [(start - skipped, end - skipped)] * len(ctx.candidates)
                candidates += ctx.candidates
                labels += ctx.labels
            memory += [self._memory(user)] * (len(candidates) - len(memory))
        return self.slow.loss(history, candidates, labels, neg_memory=np.concatenate(memory), windows=windows)

    def _slow_user_contexts(self, user, positions):
        """One context per slow position: the positive first, then its
        ``n_train_neg`` negatives."""
        seq = self.split.users[user].slow
        out = []
        for j in positions:
            negs = self.sampler.draw(user, "slow", j, self.config.n_train_neg)
            out.append(_Context(j, [seq[j]] + [int(n) for n in negs], [1] + [0] * len(negs)))
        return out

    def _train_slow_user(self, user, segments, held_out):
        """Queue ``user``'s slow contexts, at most ``max_positions_per_user``
        positions before the last ``held_out`` items (the validation item in
        epochs, none in refreshes); the segment stays open for the next user."""
        positions = np.arange(1, len(self.split.users[user].slow) - held_out)
        if positions.size > self.config.max_positions_per_user:
            positions = np.sort(self.epoch_rng.choice(positions, size=self.config.max_positions_per_user, replace=False))
        for ctx in self._slow_user_contexts(user, positions.tolist()):
            segments.add(user, ctx)

    def _slow_validation_loss(self):
        """Mean loss on each user's held-out last slow item (plus one negative)."""
        total = 0.0
        for user in self.users:
            seq = self.split.users[user].slow
            jv = len(seq) - 1
            neg = int(self.sampler.draw(user, "slow", jv, 1)[0])
            loss = self.slow.loss(self._window(seq[:jv]), [seq[jv], neg], [1, 0], neg_memory=self._memory(user))
            total += loss.item()
        return total / (2 * len(self.users))

    def train_slow(self):
        cfg = self.config
        best_loss = np.inf
        best_snapshot = None
        bad_epochs = 0
        for epoch in range(cfg.slow_epochs):
            segments = _Segments(self.opt_slow, self._slow_segment_loss, "slow-train", cfg.batch_size)
            for user in self.epoch_rng.permutation(self.users):
                self._train_slow_user(int(user), segments, held_out=1)
            segments.step()
            val = self._slow_validation_loss()
            if val < best_loss:
                best_loss = val
                best_snapshot = {p.name: p.data.copy() for p in self.slow.params()}
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs > cfg.patience:
                    break
        if best_snapshot is not None:
            ad.load_params(self.slow.params(), best_snapshot)

    def _refresh_slow(self, user):
        """One interactive epoch over a single user's slow data, one step:
        all of the user's contexts form one segment."""
        segments = _Segments(self.opt_slow, self._slow_segment_loss, "slow-refresh", np.inf)
        self._train_slow_user(user, segments, held_out=0)
        segments.step()
        self.counts["refreshes"] += 1

    # -- exchange ------------------------------------------------------------

    def _send(self, kind, user, round_no, payload):
        """Encode a message, decode it as the receiver would, log it and deliver it."""
        msg = ex.decode_message(ex.encode_message(ex.ExchangeMessage(kind, user, round_no, payload)))
        self.messages.append(msg)
        self._receive(msg)

    def _receive(self, msg):
        """Check a decoded message and apply it, cast to the run's dtype: the
        prior of an ``INTEREST_DOWN``, the memory of a ``NEGATIVE_MEMORY_UP``,
        the exposure GRU's gates of a ``GRU_N_SYNC``.  A user outside the run
        or a tensor other than a (1, dim) row or a (dim, dim) ``w_*``/``u_*``
        gate is a LifecycleError, an upload round not newer than the user's
        last a StaleRoundError."""
        dim, kind = self.config.dim, ex.MessageKind(msg.kind)
        if msg.user not in self.exposure_log:
            raise LifecycleError(f"({kind.name}) for user {msg.user}, who is not one of the run's users")
        for name, value in sorted(msg.payload.items()):
            want = (dim, dim) if name.startswith(("w_", "u_")) else (1, dim)
            if np.shape(value) != want:
                raise LifecycleError(
                    f"({kind.name}) for user {msg.user}: payload {name!r} has shape {np.shape(value)}, expected {want}"
                )
        if kind == ex.MessageKind.INTEREST_DOWN:
            self.priors[msg.user] = {k: v.astype(self.dtype) for k, v in msg.payload.items()}
        elif kind == ex.MessageKind.NEGATIVE_MEMORY_UP:
            self.tracker.accept(msg.user, msg.round)
            self.slow_memory[msg.user] = msg.payload["r2_hat"].astype(self.dtype)
        else:  # GRU_N_SYNC
            self.fast.gru_expose.load_gates(msg.payload)

    def _download(self, user, round_no):
        """Interest snapshot plus GRU sync, cloud to device, via the wire."""
        seq = self._window(self.split.users[user].slow)
        interest = self.slow.export_interest(seq, neg_memory=self.slow_memory.get(user))
        self._send(ex.MessageKind.INTEREST_DOWN, user, round_no, interest)
        self._send(ex.MessageKind.GRU_N_SYNC, user, round_no, self.slow.gru_n.export_gates())
        self.counts["downloads"] += 1

    def _upload(self, user, round_no):
        payload = self.memories[user].export(self.fast, self.exposure_log[user])
        self._send(ex.MessageKind.NEGATIVE_MEMORY_UP, user, round_no, payload)
        self.counts["uploads"] += 1
        self._refresh_slow(user)
        if self.fast.interactive:
            self._download(user, round_no)

    # -- serving plus fast training -------------------------------------------

    def _fast_contexts(self, user, j):
        """Click and exposure contexts available when event j is scored."""
        return self._window(self.split.users[user].fast[:j]), self._exposed(user, j + 1)

    def _fast_segment_loss(self, segment):
        """Summed loss of a segment's consecutive device contexts in one graph.

        Each user is one row: its contexts' windows are prefixes of its last
        context's, so both GRUs fold the users' last windows once, as one
        padded stack, and each candidate reads the states at its own row and
        context's prefix lengths.
        """
        clicked, exposed, priors, candidates, labels, prefixes = [], [], [], [], [], []
        for user, entries in itertools.groupby(segment, key=lambda entry: entry[0]):
            contexts = [ctx for _, ctx in entries]
            row = len(clicked)
            clicked.append(contexts[-1].clicked)
            exposed.append(contexts[-1].exposed)
            priors.append(self.priors.get(user))
            for ctx in contexts:
                candidates += ctx.candidates
                labels += ctx.labels
                prefixes += [(row, len(ctx.clicked), len(ctx.exposed))] * len(ctx.candidates)
        return self.fast.loss(clicked, exposed, candidates, labels, prior=priors, prefixes=prefixes)

    @staticmethod
    def _extends(segment, user, ctx):
        """Whether ``user``'s ``ctx`` can join the pending ``segment``: it starts
        a new row (nothing pending, or another user's context last), or its
        click and exposure windows extend the user's last ones (no window slid)."""
        if not segment or segment[-1][0] != user:
            return True
        last = segment[-1][1]
        return ctx.clicked[: len(last.clicked)] == last.clicked and ctx.exposed[: len(last.exposed)] == last.exposed

    def _serve_event(self, user, j, session, round_no):
        """Simulate one impression, scored through the user's serving
        ``session``: draw ``pool_size`` never-clicked candidates, show the top
        ``expose_k``, then upload round ``round_no`` unless it is 0."""
        # before any fast click the device shows something for the last slow click
        clicked = self._window(self.split.users[user].fast[:j]) or self.split.users[user].slow[-1:]
        exposed = self._exposed(user)
        # the pool holds no item the user ever clicks, so no draw can show this event's click
        pool = self.sampler.complement(user)
        drawn = self.serving_rng.choice(pool, size=min(self.config.pool_size, pool.size), replace=False)
        session.advance(clicked, exposed, self.priors.get(user))
        self.exposure_log[user].append(simulate_exposures(session.score, drawn, self.config.expose_k))
        if round_no:
            self._upload(user, round_no)

    def serve_and_train_fast(self):
        cfg = self.config
        uploads = self.slow.interactive
        for epoch in range(cfg.fast_epochs):
            order = self.epoch_rng.permutation(self.users) if epoch else list(self.users)
            segments = _Segments(self.opt_fast, self._fast_segment_loss, "fast-train", cfg.batch_size)
            for user in order:
                user = int(user)
                session = DeviceSession(self.fast) if epoch == 0 else None
                for j, item in enumerate(self.split.users[user].fast):
                    if epoch == 0:
                        round_no = self.scheduler.tick(user) if uploads else 0
                        if round_no:  # an upload changes what pending contexts read: close the segment first
                            segments.close()
                        self._serve_event(user, j, session, round_no)
                    if j == 0:
                        continue  # no on-device click context yet
                    clicked, exposed = self._fast_contexts(user, j)
                    negs = self.sampler.draw(user, "fast", j, cfg.n_train_neg)
                    ctx = _Context(j, [item] + [int(n) for n in negs], [1] + [0] * len(negs), clicked, exposed)
                    if not self._extends(segments.pending, user, ctx):
                        segments.close()
                    segments.add(user, ctx)
            segments.step()

    # -- evaluation -------------------------------------------------------------

    def evaluate(self):
        """Rank each user's test items with both frozen models.

        Each user's test negatives are one ``(test items, n_eval_neg)``
        table, drawn once per evaluation and not kept, and each component
        ranks a user's test items in one ``rank_candidates`` call over it.
        The cloud context is the slow-phase window (and negative memory) for
        every ranking, so the cloud scores each user once: one
        ``score_candidates`` pass over the sorted union of the user's test
        items and their negatives table, which every ranking reads its
        scores from.  No device context depends on another user's, so the
        device encodes every ranking's context at once
        (``FastModel.encode_contexts``: one read of all windows, one
        projection of all priors, one ``encode_np`` call per GRU and window
        length), then scores each user's rankings in one scoring-tail call
        over their ``(test items, 1 + n_eval_neg)`` candidate table.  The
        device's reads fetch every row they read from the cloud table, so a
        replay reads the device's rows from the checkpoint's ``slow/emb``.
        A batched product rounds differently from a one-row one, so device
        scores match ``score_candidates`` on each ranking's windows to the
        last bits, and a replay, which batches the same users alike, matches
        exactly.
        """
        slow_results, fast_results, tables, contexts = [], [], [], []
        for user in self.users:
            us = self.split.users[user]
            negatives = self.sampler.table(user, "test", self.config.n_eval_neg)
            ids = np.unique(np.concatenate([us.test, negatives.ravel()]))
            scores = self.slow.score_candidates(self._window(us.slow), ids, neg_memory=self._memory(user))
            slow_results += rank_candidates(lambda c: scores[np.searchsorted(ids, c)], user, us.test, negatives)
            clicks = [self._window(us.fast + us.test[:j]) for j in range(len(us.test))]
            tables.append(negatives)
            contexts.append((clicks, self._exposed(user), self.priors.get(user)))
        r_click, r_expose, r_ts = self.fast.encode_contexts(contexts)
        first = 0
        for user, negatives, r_e, r_t in zip(self.users, tables, r_expose, r_ts):
            positives = self.split.users[user].test
            candidates = np.concatenate((np.asarray(positives)[:, None], negatives), axis=1)
            rows = np.repeat(r_click[first : first + len(candidates)], candidates.shape[1], axis=0)
            first += len(candidates)
            scores = self.fast.score_states(rows, r_e[None], candidates.ravel(), r_t).reshape(candidates.shape)
            fast_results += rank_candidates(lambda c: scores, user, positives, negatives)
        return slow_results, fast_results

    def aggregate(self, results, component, dataset_tag, wall):
        """HR@k and NDCG@k for each evaluation k, then MRR, as records."""
        metrics = (("hr", hr_at_k), ("ndcg", ndcg_at_k))
        values = [(name, k, f(results, k)) for k in self.config.eval_ks for name, f in metrics]
        values.append(("mrr", 0, mrr(results)))
        return [RunRecord(dataset_tag, self.config.variant, component, *v, self.seed, wall) for v in values]


def _dataset_tag(config):
    if config.data_format == "cluster":
        return "cluster"
    name = config.dataset.replace("\\", "/").rsplit("/", 1)[-1]
    return name or config.data_format


def _check_negative_counts(config, split, users):
    """Every user must have as many never-clicked items as the larger of
    ``n_train_neg`` and ``n_eval_neg`` asks for, checked before any training."""
    key = max(("n_train_neg", "n_eval_neg"), key=lambda name: getattr(config, name))
    need = getattr(config, key)
    for user in users:
        unseen = split.vocab_size - len(set(split.users[user].all_items()))
        if unseen < need:
            raise LifecycleError(f"user {user} has {unseen} unseen items, fewer than {key} = {need} negatives")


def run_lifecycle(config, prepared=None, collect_state=False):
    """Run the full per-seed lifecycle grid for one config."""
    split, users = prepared if prepared is not None else prepare_data(config)
    if not users:  # a caller's own ``prepared``; prepare_data checks its own
        raise LifecycleError(_NO_USERS)
    _check_negative_counts(config, split, users)
    outcome = LifecycleOutcome()
    tag = _dataset_tag(config)
    for offset in range(config.seeds):
        seed = config.base_seed + offset
        started = time.perf_counter()
        run = _SeedRun(config, seed, split, users)
        run.train_slow()
        if run.fast.interactive:
            for user in users:
                run._download(user, round_no=0)
        run.serve_and_train_fast()
        if collect_state:  # the trained weights: evaluation changes no parameter
            outcome.states[seed] = _collect_state(run)
        slow_results, fast_results = run.evaluate()
        wall = round(time.perf_counter() - started, 4) if config.record_timing else 0.0
        outcome.records += run.aggregate(slow_results, "slow", tag, wall)
        outcome.records += run.aggregate(fast_results, "fast", tag, wall)
        outcome.messages[seed] = run.messages
        outcome.diagnostics[seed] = dict(run.counts)
    return outcome


def _collect_state(run):
    """Weights plus exposure streams, enough to re-evaluate: the device rows
    evaluation reads are the cloud's, from ``slow/emb``."""
    arrays = {p.name: p.data.copy() for p in run.slow.params() + run.fast.params()}
    exposures = {user: [list(step) for step in log] for user, log in run.exposure_log.items()}
    return arrays, exposures


def evaluate_from_state(config, seed, prepared, arrays, messages, exposures):
    """Rebuild evaluation-time state from saved artifacts and re-rank.

    ``arrays`` is a checkpoint produced from :func:`_collect_state`, ``messages``
    the decoded exchange log, ``exposures`` the per-user shown-item streams.
    The log goes through ``_SeedRun._receive`` as it did live (its errors
    prefixed with the message's index), then the checkpoint loads, so the
    trained weights replace the gates the syncs loaded.  For float32 runs
    every ranking scores as at training time, bit for bit.  An interactive
    device model with a user no interest download reached, a message for a
    user outside the run, a user of the run that ``exposures`` lacks, a
    stream for a user outside the run or with other than one step per
    fast-phase event, an exposed item outside the vocabulary, a user with
    fewer unseen items than ``n_eval_neg`` or ``n_train_neg``: each raises
    :class:`LifecycleError`; a tensor that ``arrays`` lacks a
    :class:`~sfrec.autodiff.CheckpointError`.
    """
    split, users = prepared
    _check_negative_counts(config, split, users)
    run = _SeedRun(config, seed, split, users)
    for index, m in enumerate(messages):
        try:
            run._receive(m)
        except LifecycleError as err:
            raise LifecycleError(f"message {index} {err}") from err
    ad.load_params(run.slow.params() + run.fast.params(), arrays)
    if run.fast.interactive:
        unprimed = [u for u in users if u not in run.priors]
        if unprimed:
            raise LifecycleError(f"no INTEREST_DOWN message for user {unprimed[0]}: the device model needs its prior")
    for user, log in exposures.items():
        user, steps = int(user), [[int(i) for i in step] for step in log]
        if user not in run.exposure_log:
            raise LifecycleError(f"the exposures have a stream for user {user}, who is not one of the run's users")
        if stray := [i for step in steps for i in step if not 0 <= i < split.vocab_size]:
            raise LifecycleError(f"user {user}'s exposures hold item {stray[0]}, outside [0, {split.vocab_size})")
        if len(steps) != len(split.users[user].fast):
            events = len(split.users[user].fast)
            raise LifecycleError(f"user {user}'s exposures hold {len(steps)} serving steps, for {events} fast-phase events")
        run.exposure_log[user] = steps
    unexposed = set(users).difference(int(user) for user in exposures)
    if unexposed:
        raise LifecycleError(f"the exposures have no stream for user {next(u for u in users if u in unexposed)}")
    slow_results, fast_results = run.evaluate()
    tag = _dataset_tag(config)
    return run.aggregate(slow_results, "slow", tag, 0.0) + run.aggregate(fast_results, "fast", tag, 0.0)


# ---------------------------------------------------------------------------
# result files


def _format_value(x):
    return str(Decimal(repr(float(x))).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


CSV_HEADER = ["dataset", "variant", "component", "metric", "k", "value", "seed", "wall_seconds"]


def write_results(records, path):
    """Deterministic CSV: sorted rows, 4-decimal half-up values, replaced atomically."""
    if not records:
        raise ValueError("refusing to write an empty results file")
    rows = sorted(
        records, key=lambda r: (r.dataset, r.variant, r.component, r.metric, r.k, r.seed)
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow(
            [r.dataset, r.variant, r.component, r.metric, r.k, _format_value(r.value), r.seed, _format_value(r.wall_seconds)]
        )
    write_atomic(path, buf.getvalue().encode("utf-8"))


def read_results(path):
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected results header: {header}")
        for row in reader:
            dataset, variant, component, metric, k, value, seed, wall = row
            records.append(
                RunRecord(dataset, variant, component, metric, int(k), float(value), int(seed), float(wall))
            )
    return records
