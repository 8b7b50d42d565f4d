"""Lifecycle orchestration: slow pre-training, serving with uploads, fast
training, and the asymmetric evaluation pass.

The cadence is linearized per seed:

1. The cloud model trains on slow-phase data (interactive wirings start with
   an all-zero negative memory) with early stopping on each user's last
   slow-phase item.
2. Bidirectional runs download an initial interest snapshot and GRU sync per
   user.
3. Fast-phase events run in order.  On the first epoch each event also plays
   a serving step: exposures are simulated with the current device model and
   the scheduler decides whether to upload.  An upload ships the negative
   memory through the real wire codec, triggers a one-user refresh round on
   the cloud, and (bidirectional only) a fresh download.
4. Remaining fast epochs retrain on the logged streams with final priors.
5. Both components are frozen and evaluated: the cloud ranks all five test
   items from the slow-phase context; the device context grows with each
   consumed test item.  It is encoded once per user and its click GRU state
   carried forward one step per consumed item (see ``_SeedRun.evaluate``).

A training context is a click position with its positive and
``n_train_neg`` negatives.  Training builds one tape per segment: a run of
one user's consecutive contexts that see the same parameters and inputs, so
their summed loss goes through one batched forward and backward (the models'
``loss`` take a segment; a single context is a segment of one).  A segment
closes at the context that fires an Adam step and at the end of the user's
contexts; on the device side also where a context's click or exposure window
is not a prefix-extension of the segment's, before a serving event that will
upload (its refresh and download change what the next contexts see), and
before a device-row sync that would change a row the segment reads.  Adam
steps count examples, so the step schedule is the per-example one whenever
``1 + n_train_neg`` divides ``batch_size``; otherwise a step fires at the
first context boundary at or past ``batch_size``.  Segmenting changes only
the order of float summation, not the steps, the negatives or any rng draw.
The step schedule and the close-at-the-step rule live in ``_Segments``, which
slow epochs, refreshes (one step per refresh) and fast epochs all train
through; the device-side closing checks stay in ``serve_and_train_fast``.
A received message takes effect in one place, ``_SeedRun._receive``, both
live and when ``evaluate_from_state`` replays the message log.

Everything is deterministic given (config, seed): rngs hang off one seed
sequence per purpose, users iterate in sorted or seeded-permutation order,
and timing capture can be turned off to make result files byte-identical.
"""

from __future__ import annotations

import csv
import io
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
from .fast import ExposureMemory, FastModel
from .metrics import hr_at_k, mrr, ndcg_at_k, rank_candidates
from .slow import InterestExport, SlowModel

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


class _Segments:
    """One training phase's open segment (one user's pending contexts) and
    its examples since the last Adam step: ``add`` closes the segment and
    steps once ``batch_size`` examples are pending."""

    def __init__(self, opt, segment_loss, phase, batch_size):
        self.opt = opt
        self.segment_loss = segment_loss
        self.phase = phase
        self.batch_size = batch_size
        self.user = None
        self.pending = []
        self.examples = 0

    def add(self, user, ctx):
        self.user = user
        self.pending.append(ctx)
        self.examples += len(ctx.candidates)
        if self.examples >= self.batch_size:
            self.close()
            self.step()

    def close(self):
        """Forward and backward the pending contexts on one tape.  A
        non-finite loss is traced to the first context whose own loss is
        non-finite; a finite one costs no more than the check."""
        segment, self.pending = self.pending, []
        if not segment:
            return
        with ad.tape() as t:
            loss = self.segment_loss(self.user, segment)
            t.backward(loss)
        if not np.isfinite(loss.item()):
            failing = next((c for c in segment if not np.isfinite(self.segment_loss(self.user, [c]).item())), segment[0])
            raise LifecycleError(f"non-finite loss in phase {self.phase!r} at user {self.user}, position {failing.position}")

    def step(self):
        if self.examples:
            self.opt.step(scale=1.0 / self.examples)
            self.opt.zero_grad()
            self.examples = 0


def prepare_data(config):
    """Load, split, and (optionally) subsample users; fixed across seeds."""
    if config.data_format == "cluster":
        interactions = make_cluster_dataset(seed=0)
    elif config.data_format == "ml1m":
        interactions, _, _ = parse_ml1m(config.dataset)
    else:
        interactions, _, _ = parse_tsv(config.dataset)
    split = phase_split(interactions, min_len=config.min_seq_len)
    users = sorted(split.users)
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
        self.fast = FastModel(
            vocab, config.dim, _purpose_rng(seed, 1), interactive=fast_interactive,
            dtype=self.dtype, head_hidden=hidden,
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
        self.priors = {}  # user -> InterestExport (decoded)
        self.exposure_log = {u: [] for u in users}

    # -- shared helpers -----------------------------------------------------

    def _window(self, items):
        return items[-self.config.max_history_len :]

    def _memory(self, user):
        """The cloud's latest negative memory of ``user``: zeros before any upload."""
        return self.slow_memory.get(user, np.zeros((1, self.config.dim), dtype=self.dtype))

    def _sync_device_rows(self, ids):
        ids = np.asarray(ids, dtype=np.intp)
        self.fast.sync_rows(ids, self.slow.embedding.lookup_np(ids))

    def _resync_device(self):
        ids = self.fast.synced_ids()
        if ids.size:
            self._sync_device_rows(ids)

    def _exposed(self, user, steps=None):
        """The exposure window over ``user``'s first ``steps`` serving steps (None: all of them)."""
        return self._window([i for step in self.exposure_log[user][:steps] for i in step])

    # -- slow training ------------------------------------------------------

    def _slow_segment_loss(self, user, segment):
        """Summed loss of consecutive slow contexts of ``user`` in one graph.

        The shared history holds the rows some context's window covers (rows
        between windows that none covers are left out), and every candidate
        attends to its own context's window of it.
        """
        seq = self.split.users[user].slow
        span = self.config.max_history_len
        history, windows, candidates, labels = [], [], [], []
        skipped = covered = max(0, segment[0].position - span)
        for ctx in segment:
            start, end = max(0, ctx.position - span), ctx.position
            if start > covered:
                skipped += start - covered
                covered = start
            history += seq[covered:end]
            covered = end
            windows += [(start - skipped, end - skipped)] * len(ctx.candidates)
            candidates += ctx.candidates
            labels += ctx.labels
        return self.slow.loss(history, candidates, labels, neg_memory=self._memory(user), windows=windows)

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
        epochs, none in refreshes), and close the segment."""
        positions = np.arange(1, len(self.split.users[user].slow) - held_out)
        if positions.size > self.config.max_positions_per_user:
            positions = np.sort(self.epoch_rng.choice(positions, size=self.config.max_positions_per_user, replace=False))
        for ctx in self._slow_user_contexts(user, positions.tolist()):
            segments.add(user, ctx)
        segments.close()

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
        msg = ex.ExchangeMessage(
            kind=kind,
            user=user,
            round=round_no,
            payload={k: np.asarray(v, dtype=np.float32) for k, v in payload.items()},
        )
        decoded = ex.decode_message(ex.encode_message(msg))
        self.messages.append(decoded)
        return decoded

    def _receive(self, msg):
        """Store what a decoded message carries, cast to the run's dtype: the
        prior of an ``INTEREST_DOWN``, the memory of a ``NEGATIVE_MEMORY_UP``."""
        if msg.kind == ex.MessageKind.INTEREST_DOWN:
            r_n, r_t = (msg.payload[k].astype(self.dtype) for k in ("r_n", "r_t"))
            self.priors[msg.user] = InterestExport(msg.user, msg.round, r_n, r_t)
        elif msg.kind == ex.MessageKind.NEGATIVE_MEMORY_UP:
            self.slow_memory[msg.user] = msg.payload["r2_hat"].astype(self.dtype)

    def _download(self, user, round_no):
        """Interest snapshot plus GRU sync, cloud to device, via the wire."""
        seq = self._window(self.split.users[user].slow)
        export = self.slow.export_interest(user, seq, round_no, neg_memory=self.slow_memory.get(user))
        self._receive(self._send(ex.MessageKind.INTEREST_DOWN, user, round_no, {"r_n": export.r_n, "r_t": export.r_t}))
        sync = self._send(ex.MessageKind.GRU_N_SYNC, user, round_no, self.slow.gru_n.export_gates())
        self.fast.gru_expose.load_gates(sync.payload)
        self._resync_device()
        self.counts["downloads"] += 1

    def _upload(self, user):
        export = self.memories[user].export(self.fast, user)
        round_no = self.scheduler.next_round(user)
        self._receive(self._send(ex.MessageKind.NEGATIVE_MEMORY_UP, user, round_no, {"r2_hat": export.r2_hat}))
        self.tracker.accept(user, round_no)
        self.counts["uploads"] += 1
        self._refresh_slow(user)
        if self.fast.interactive:
            self._download(user, round_no)

    # -- serving plus fast training -------------------------------------------

    def _fast_contexts(self, user, j):
        """Click and exposure contexts available when event j is scored."""
        return self._window(self.split.users[user].fast[:j]), self._exposed(user, j + 1)

    def _fast_segment_loss(self, user, segment):
        """Summed loss of consecutive device contexts of ``user`` in one graph.

        Every context's windows are prefixes of the last one's, so both GRUs
        run once over the last context's windows and each candidate reads the
        states at its own context's prefix lengths.
        """
        last = segment[-1]
        candidates, labels, prefixes = [], [], []
        for ctx in segment:
            candidates += ctx.candidates
            labels += ctx.labels
            prefixes += [(len(ctx.clicked), len(ctx.exposed))] * len(ctx.candidates)
        return self.fast.loss(
            last.clicked, last.exposed, candidates, labels, prior=self.priors.get(user), prefixes=prefixes
        )

    @staticmethod
    def _extends(segment, ctx):
        """Whether ``ctx``'s click and exposure windows extend the pending
        segment's (no window slid); true when nothing is pending."""
        if not segment:
            return True
        last = segment[-1]
        return ctx.clicked[: len(last.clicked)] == last.clicked and ctx.exposed[: len(last.exposed)] == last.exposed

    def _reads_stale_rows(self, segment):
        """Whether a device row the pending segment reads differs from its
        cloud row, so that the next sync would change it under the segment."""
        if not segment:
            return False
        last = segment[-1]
        ids = np.unique(np.asarray(last.clicked + last.exposed + [i for c in segment for i in c.candidates]))
        return self.fast.changed_rows(ids, self.slow.embedding.lookup_np(ids)).size > 0

    def _serve_event(self, user, j, item):
        """Simulate one impression: exposures, accumulation, maybe an upload."""
        cfg = self.config
        clicked = self._window(self.split.users[user].fast[:j])
        if not clicked:
            clicked = self.split.users[user].slow[-1:]  # device shows something before any fast click
        exposed = self._exposed(user)
        pool = self.sampler.complement(user)
        self._sync_device_rows(np.unique(np.concatenate([pool, np.asarray(clicked + [item], dtype=np.int64)])))
        prior = self.priors.get(user)
        shown = simulate_exposures(
            lambda ids: self.fast.score_candidates(clicked, exposed, ids, prior=prior),
            pool, item, self.serving_rng, pool_size=cfg.pool_size, expose_k=cfg.expose_k,
        )
        self.exposure_log[user].append(shown)
        if self.slow.interactive:
            self.memories[user].record(shown)
            if self.scheduler.tick(user) == ex.Decision.UPLOAD_NOW:
                self._upload(user)

    def serve_and_train_fast(self):
        cfg = self.config
        interactions_needed = set()
        for user in self.users:
            us = self.split.users[user]
            interactions_needed.update(us.slow[-1:])
            interactions_needed.update(us.fast)
            interactions_needed.update(us.test)
        self._sync_device_rows(sorted(interactions_needed))

        uploads = self.slow.interactive
        for epoch in range(cfg.fast_epochs):
            order = self.epoch_rng.permutation(self.users) if epoch else list(self.users)
            segments = _Segments(self.opt_fast, self._fast_segment_loss, "fast-train", cfg.batch_size)
            for user in order:
                user = int(user)
                for j, item in enumerate(self.split.users[user].fast):
                    # the serving event and the negatives' sync below may change
                    # what pending contexts read: close the segment first
                    if (epoch == 0 and uploads and self.scheduler.due(user)) or self._reads_stale_rows(segments.pending):
                        segments.close()
                    if epoch == 0:
                        self._serve_event(user, j, item)
                    if j == 0:
                        continue  # no on-device click context yet
                    clicked, exposed = self._fast_contexts(user, j)
                    negs = self.sampler.draw(user, "fast", j, cfg.n_train_neg)
                    self._sync_device_rows(negs)
                    ctx = _Context(j, [item] + [int(n) for n in negs], [1] + [0] * len(negs), clicked, exposed)
                    if not self._extends(segments.pending, ctx):
                        segments.close()
                    segments.add(user, ctx)
                segments.close()
            segments.step()

    # -- evaluation -------------------------------------------------------------

    def _sync_eval_rows(self, ids):
        """Sync ``ids`` to the device; returns the set of those whose device row changed.

        A variant without downloads (``f2s``) keeps rows that refreshes have
        since moved in the cloud, so an evaluation sync can change rows an
        encoded device context was built from.
        """
        ids = np.asarray(ids, dtype=np.intp)
        rows = self.slow.embedding.lookup_np(ids)
        changed = self.fast.changed_rows(ids, rows)
        self.fast.sync_rows(ids, rows)
        return set(changed.tolist())

    def evaluate(self):
        """Rank each user's test items with both frozen models.

        The cloud context is the slow-phase window for every ranking.  The
        device context is encoded once per user (prior-derived init states and
        the exposure state); its click state then advances by one GRU step per
        consumed test item while the ``max_history_len`` window still holds
        every click, and is re-encoded from the prior-derived state only where
        the window slides.  A context whose rows an evaluation sync changed is
        re-encoded too.  Each GRU step is the one a full re-encode would take,
        so the scores equal ``score_candidates`` on the ranking's windows.
        """
        slow_results, fast_results = [], []
        for user in self.users:
            us = self.split.users[user]
            slow_ctx = self._window(us.slow)
            memory = self._memory(user)
            prior = self.priors.get(user)
            exposed_full = self._exposed(user)
            device = None
            for j, positive in enumerate(us.test):
                negs = [int(n) for n in self.sampler.draw(user, "test", j, self.config.n_eval_neg)]
                changed = self._sync_eval_rows(negs + [positive])

                def slow_score(ids):
                    return self.slow.score_candidates(slow_ctx, ids, neg_memory=memory)

                slow_results.append(rank_candidates(slow_score, user, positive, negs))

                clicked = self._window(us.fast + us.test[:j])
                if device is None or changed.intersection(exposed_full):
                    device = self.fast.encode_context(clicked, exposed_full, prior)
                elif len(us.fast) + j > self.config.max_history_len or changed.intersection(clicked[:-1]):
                    device = self.fast.reencode_clicks(device, clicked)
                else:
                    device = self.fast.extend_clicks(device, clicked[-1:])

                def fast_score(ids):
                    return self.fast.score_context(device, ids)

                fast_results.append(rank_candidates(fast_score, user, positive, negs))
        return slow_results, fast_results

    def aggregate(self, results, component, dataset_tag, wall):
        records = []
        for k in self.config.eval_ks:
            records.append(
                RunRecord(dataset_tag, self.config.variant, component, "hr", k, hr_at_k(results, k), self.seed, wall)
            )
            records.append(
                RunRecord(dataset_tag, self.config.variant, component, "ndcg", k, ndcg_at_k(results, k), self.seed, wall)
            )
        records.append(RunRecord(dataset_tag, self.config.variant, component, "mrr", 0, mrr(results), self.seed, wall))
        return records


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
    if not users:
        raise LifecycleError("no users survived the split; nothing to run")
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
        slow_results, fast_results = run.evaluate()
        wall = round(time.perf_counter() - started, 4) if config.record_timing else 0.0
        outcome.records += run.aggregate(slow_results, "slow", tag, wall)
        outcome.records += run.aggregate(fast_results, "fast", tag, wall)
        outcome.messages[seed] = run.messages
        outcome.diagnostics[seed] = dict(run.counts)
        if collect_state:
            outcome.states[seed] = _collect_state(run)
    return outcome


def _collect_state(run):
    """Weights plus device mirror plus exposure streams, enough to re-evaluate."""
    arrays = {p.name: p.data.copy() for p in run.slow.params() + run.fast.params()}
    emb, synced = run.fast.export_device_state()
    arrays["device/emb"] = emb
    arrays["device/synced"] = synced.astype(np.float32)
    exposures = {user: [list(step) for step in log] for user, log in run.exposure_log.items()}
    return arrays, exposures


_CONSUMED_KINDS = (ex.MessageKind.INTEREST_DOWN, ex.MessageKind.NEGATIVE_MEMORY_UP)


def _check_payload_shapes(index, msg, dim):
    """Every tensor a replay consumes is one (1, dim) row; anything else is a LifecycleError."""
    for name, value in sorted(msg.payload.items()):
        shape = np.shape(value)
        if shape != (1, dim):
            raise LifecycleError(
                f"message {index} ({ex.MessageKind(msg.kind).name}) for user {msg.user}: "
                f"payload {name!r} has shape {shape}, expected {(1, dim)}"
            )


def evaluate_from_state(config, seed, prepared, arrays, messages, exposures):
    """Rebuild evaluation-time state from saved artifacts and re-rank.

    ``arrays`` is a checkpoint produced from :func:`_collect_state`, ``messages``
    the decoded exchange log, ``exposures`` the per-user shown-item streams.
    For float32 runs the records match the training-time evaluation exactly.
    An interest or negative-memory payload that is not a (1, dim) row raises
    :class:`LifecycleError` naming the message, and so does an interactive
    device model with a user no interest download reached, a user of the
    run that ``exposures`` lacks, or one with fewer unseen items than
    ``n_eval_neg`` or ``n_train_neg``.  A tensor that ``arrays`` lacks raises
    :class:`~sfrec.autodiff.CheckpointError` naming it.
    """
    split, users = prepared
    _check_negative_counts(config, split, users)
    run = _SeedRun(config, seed, split, users)
    ad.load_params(run.slow.params() + run.fast.params(), arrays)
    synced = np.asarray(ad.checkpoint_array(arrays, "device/synced")) > 0.5
    run.fast.load_device_state(ad.checkpoint_array(arrays, "device/emb"), synced)
    for index, m in enumerate(messages):
        if m.kind in _CONSUMED_KINDS:
            _check_payload_shapes(index, m, config.dim)
        run._receive(m)
    if run.fast.interactive:
        unprimed = [u for u in users if u not in run.priors]
        if unprimed:
            raise LifecycleError(f"no INTEREST_DOWN message for user {unprimed[0]}: the device model needs its prior")
    for user, log in exposures.items():
        run.exposure_log[int(user)] = [[int(i) for i in step] for step in log]
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
