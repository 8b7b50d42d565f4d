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

Training builds one tape per context: a click position with its positive
and ``n_train_neg`` negatives goes through the model in one batched forward
and backward.  Adam steps count examples, so the step schedule is the
per-example one whenever ``1 + n_train_neg`` divides ``batch_size``; otherwise
a step fires at the first context boundary at or past ``batch_size``.

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


def _purpose_rng(seed, purpose):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(purpose,)))


def _purpose_int(seed, purpose):
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(purpose,)).generate_state(1)[0])


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

    def _zero_memory(self):
        return np.zeros((1, self.config.dim), dtype=self.dtype)

    def _sync_device_rows(self, ids):
        ids = np.asarray(ids, dtype=np.intp)
        self.fast.sync_rows(ids, self.slow.embedding.lookup_np(ids))

    def _resync_device(self):
        ids = self.fast.synced_ids()
        if ids.size:
            self._sync_device_rows(ids)

    def _check_finite(self, loss, phase, user, position):
        if not np.isfinite(loss):
            raise LifecycleError(f"non-finite loss in phase {phase!r} at user {user}, position {position}")

    # -- slow training ------------------------------------------------------

    def _slow_context_loss(self, context, candidates, labels, user):
        if self.slow.interactive:
            memory = self.slow_memory.get(user)
            memory = self._zero_memory() if memory is None else memory
            return self.slow.loss(context, candidates, labels, neg_memory=memory)
        return self.slow.loss(context, candidates, labels)

    def _slow_user_contexts(self, user, positions):
        """(position, context, candidates, labels) per slow position: the
        positive first, then its ``n_train_neg`` negatives."""
        seq = self.split.users[user].slow
        out = []
        for j in positions:
            negs = self.sampler.draw(user, "slow", j, self.config.n_train_neg)
            candidates = [seq[j]] + [int(n) for n in negs]
            out.append((j, self._window(seq[:j]), candidates, [1] + [0] * len(negs)))
        return out

    def _slow_validation_loss(self):
        """Mean loss on each user's held-out last slow item (plus one negative)."""
        total, n = 0.0, 0
        for user in self.users:
            seq = self.split.users[user].slow
            jv = len(seq) - 1
            context = self._window(seq[:jv])
            neg = int(self.sampler.draw(user, "slow", jv, 1)[0])
            memory = self.slow_memory.get(user, self._zero_memory()) if self.slow.interactive else None
            scores = self.slow.score_candidates(context, [seq[jv], neg], neg_memory=memory)
            p = np.clip(scores, 1e-7, 1.0 - 1e-7)
            total += -np.log(p[0]) - np.log(1.0 - p[1])
            n += 2
        return total / n

    def train_slow(self):
        cfg = self.config
        best_loss = np.inf
        best_snapshot = None
        bad_epochs = 0
        for epoch in range(cfg.slow_epochs):
            order = self.epoch_rng.permutation(self.users)
            pending = 0
            for user in order:
                seq = self.split.users[user].slow
                trainable = np.arange(1, len(seq) - 1)
                if trainable.size > cfg.max_positions_per_user:
                    picked = self.epoch_rng.choice(trainable, size=cfg.max_positions_per_user, replace=False)
                    trainable = np.sort(picked)
                for j, context, candidates, labels in self._slow_user_contexts(int(user), trainable.tolist()):
                    with ad.tape() as t:
                        loss = self._slow_context_loss(context, candidates, labels, int(user))
                        t.backward(loss)
                    self._check_finite(loss.item(), "slow-train", user, j)
                    pending += len(candidates)
                    if pending >= cfg.batch_size:
                        self.opt_slow.step(scale=1.0 / pending)
                        self.opt_slow.zero_grad()
                        pending = 0
            if pending:
                self.opt_slow.step(scale=1.0 / pending)
                self.opt_slow.zero_grad()
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
            self.slow.load_arrays(best_snapshot)

    def _refresh_slow(self, user):
        """One interactive epoch over a single user's slow data, one step."""
        seq = self.split.users[user].slow
        trainable = np.arange(1, len(seq))
        if trainable.size > self.config.max_positions_per_user:
            picked = self.epoch_rng.choice(trainable, size=self.config.max_positions_per_user, replace=False)
            trainable = np.sort(picked)
        count = 0
        self.opt_slow.zero_grad()
        for j, context, candidates, labels in self._slow_user_contexts(user, trainable.tolist()):
            with ad.tape() as t:
                loss = self._slow_context_loss(context, candidates, labels, user)
                t.backward(loss)
            self._check_finite(loss.item(), "slow-refresh", user, j)
            count += len(candidates)
        if count:
            self.opt_slow.step(scale=1.0 / count)
            self.opt_slow.zero_grad()
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

    def _download(self, user, round_no):
        """Interest snapshot plus GRU sync, cloud to device, via the wire."""
        seq = self._window(self.split.users[user].slow)
        export = self.slow.export_interest(user, seq, round_no, neg_memory=self.slow_memory.get(user))
        down = self._send(
            ex.MessageKind.INTEREST_DOWN, user, round_no, {"r_n": export.r_n, "r_t": export.r_t}
        )
        sync = self._send(ex.MessageKind.GRU_N_SYNC, user, round_no, self.slow.gru_n.export_gates())
        export.r_n = down.payload["r_n"].astype(self.dtype)
        export.r_t = down.payload["r_t"].astype(self.dtype)
        self.priors[user] = export
        self.fast.gru_expose.load_gates(sync.payload, dtype=self.dtype)
        self._resync_device()
        self.counts["downloads"] += 1

    def _upload(self, user):
        export = self.memories[user].export(self.fast, user)
        round_no = self.scheduler.next_round(user)
        msg = self._send(ex.MessageKind.NEGATIVE_MEMORY_UP, user, round_no, {"r2_hat": export.r2_hat})
        self.tracker.accept(user, round_no)
        self.slow_memory[user] = msg.payload["r2_hat"].astype(self.dtype)
        self.counts["uploads"] += 1
        self._refresh_slow(user)
        if self.config.variant == "s2f_full":
            self._download(user, round_no)

    # -- serving plus fast training -------------------------------------------

    def _fast_contexts(self, user, j):
        """Click and exposure contexts available when event j is scored."""
        clicked = self._window(self.split.users[user].fast[:j])
        exposed = [i for step in self.exposure_log[user][: j + 1] for i in step]
        return clicked, self._window(exposed)

    def _fast_context_loss(self, user, clicked, exposed, candidates, labels):
        prior = self.priors.get(user)
        if self.fast.interactive:
            return self.fast.loss(clicked, exposed, candidates, labels, prior=prior)
        return self.fast.loss(clicked, exposed, candidates, labels)

    def _serve_event(self, user, j, item):
        """Simulate one impression: exposures, accumulation, maybe an upload."""
        cfg = self.config
        clicked = self._window(self.split.users[user].fast[:j])
        if not clicked:
            clicked = self.split.users[user].slow[-1:]  # device shows something before any fast click
        exposed = self._window([i for step in self.exposure_log[user] for i in step])
        pool = self.sampler.complement(user)
        self._sync_device_rows(np.unique(np.concatenate([pool, np.asarray(clicked + [item], dtype=np.int64)])))
        prior = self.priors.get(user)

        def score_fn(ids):
            if self.fast.interactive:
                return self.fast.score_candidates(clicked, exposed, ids, prior=prior)
            return self.fast.score_candidates(clicked, exposed, ids)

        shown = simulate_exposures(
            score_fn, pool, item, self.serving_rng, pool_size=cfg.pool_size, expose_k=cfg.expose_k
        )
        self.exposure_log[user].append(shown)
        if cfg.variant != "independent":
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

        for epoch in range(cfg.fast_epochs):
            order = self.epoch_rng.permutation(self.users) if epoch else list(self.users)
            pending = 0
            for user in order:
                user = int(user)
                seq = self.split.users[user].fast
                for j, item in enumerate(seq):
                    if epoch == 0:
                        self._serve_event(user, j, item)
                    if j == 0:
                        continue  # no on-device click context yet
                    clicked, exposed = self._fast_contexts(user, j)
                    negs = self.sampler.draw(user, "fast", j, cfg.n_train_neg)
                    self._sync_device_rows(negs)
                    candidates = [item] + [int(n) for n in negs]
                    with ad.tape() as t:
                        loss = self._fast_context_loss(user, clicked, exposed, candidates, [1] + [0] * len(negs))
                        t.backward(loss)
                    self._check_finite(loss.item(), "fast-train", user, j)
                    pending += len(candidates)
                    if pending >= cfg.batch_size:
                        self.opt_fast.step(scale=1.0 / pending)
                        self.opt_fast.zero_grad()
                        pending = 0
            if pending:
                self.opt_fast.step(scale=1.0 / pending)
                self.opt_fast.zero_grad()

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
            memory = self.slow_memory.get(user, self._zero_memory()) if self.slow.interactive else None
            prior = self.priors.get(user)
            exposed_full = self._window([i for step in self.exposure_log[user] for i in step])
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


def run_lifecycle(config, prepared=None, collect_state=False):
    """Run the full per-seed lifecycle grid for one config."""
    split, users = prepared if prepared is not None else prepare_data(config)
    if not users:
        raise LifecycleError("no users survived the split; nothing to run")
    outcome = LifecycleOutcome()
    tag = _dataset_tag(config)
    for offset in range(config.seeds):
        seed = config.base_seed + offset
        started = time.perf_counter()
        run = _SeedRun(config, seed, split, users)
        run.train_slow()
        if config.variant == "s2f_full":
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
    arrays = {name: arr.copy() for name, arr in run.slow.named_arrays().items()}
    arrays.update({name: arr.copy() for name, arr in run.fast.named_arrays().items()})
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
    device model with a user no interest download reached.
    """
    split, users = prepared
    run = _SeedRun(config, seed, split, users)
    run.slow.load_arrays(arrays)
    run.fast.load_arrays(arrays)
    run.fast.load_device_state(arrays["device/emb"], np.asarray(arrays["device/synced"]) > 0.5)
    for index, m in enumerate(messages):
        if m.kind in _CONSUMED_KINDS:
            _check_payload_shapes(index, m, config.dim)
        if m.kind == ex.MessageKind.INTEREST_DOWN:
            run.priors[m.user] = InterestExport(
                m.user, m.round, m.payload["r_n"].astype(run.dtype), m.payload["r_t"].astype(run.dtype)
            )
        elif m.kind == ex.MessageKind.NEGATIVE_MEMORY_UP:
            run.slow_memory[m.user] = m.payload["r2_hat"].astype(run.dtype)
    if run.fast.interactive:
        unprimed = [u for u in users if u not in run.priors]
        if unprimed:
            raise LifecycleError(f"no INTEREST_DOWN message for user {unprimed[0]}: the device model needs its prior")
    for user, log in exposures.items():
        run.exposure_log[int(user)] = [[int(i) for i in step] for step in log]
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
