"""The benchmark's workloads: seeded inputs, the timed bodies, correctness gates.

Every input is generated from the run's ``--seed``; the library only ever
sees the generated corpus.  ``prepare_data`` hard-codes the cluster corpus
seed, so the lifecycle workloads build the corpus themselves and pass it in
as ``prepared``; the replay workload writes it to a TSV file and goes through
the CLI.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from sfrec import cli, config, data, exchange, harness


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "lifecycle" (run_lifecycle in-process) or "replay" (sfrec train, then timed sfrec eval)
    corpus: dict  # make_cluster_dataset arguments other than the seed
    config: dict = field(default_factory=dict)  # ExperimentConfig fields
    setups: int = 6  # set-ups per run; setup_s is their median


# Shared by every workload.  batch_size 32 gives the single slow epoch enough
# Adam steps to learn the planted clusters, so the quality guards sit near
# their ceiling and vary little between seeds.
_LIFECYCLE = dict(variant="s2f_full", dim=32, lr=5e-3, batch_size=32, slow_epochs=1, fast_epochs=1, n_eval_neg=50)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-cluster",
            why="built-in cluster corpus, one upload per user: training-bound, so tape, Adam and graph-forward work shows",
            kind="lifecycle",
            corpus=dict(n_users=200, n_items=100, n_clusters=4),
            config=dict(_LIFECYCLE, threshold=5),
        ),
        Workload(
            name="upload-storm",
            why="same corpus, threshold 1: every serving event uploads, refreshes one user and downloads; the exchange write side",
            kind="lifecycle",
            corpus=dict(n_users=200, n_items=100, n_clusters=4),
            config=dict(_LIFECYCLE, threshold=1),
        ),
        Workload(
            name="eval-replay",
            why="sfrec eval from saved state on long histories and 300 negatives: scoring, ranking and decoding with no tape",
            kind="replay",
            # 4 clusters of 100 items: 100 clicks per user, so the 30-item
            # history window is full and exactly 300 unclicked items remain;
            # 80 users is the fewest that keep every item above the 20-click
            # floor.  400 items train less reliably than the built-in corpus:
            # with batch 32, lr 5e-3, 2 slow and 3 fast epochs about 1 training
            # seed in 6 learned poorly, and fast ndcg@10 of the others ranged
            # from 0.65 to 0.99.  With the settings below about 1 seed in 10
            # still does, so the quality guards take the median over three
            # states; with two (their mean), fast ndcg@10 fell below 0.83 on 3
            # of 10 seeds.  One slow epoch would shorten set-up by about a
            # tenth, but then the corpus of seed 52 fell from ndcg@10 of 1.0
            # (slow) and 1.0 (fast) to 0.80 and 0.73.
            corpus=dict(n_users=80, n_items=400, n_clusters=4),
            config=dict(
                _LIFECYCLE, threshold=5, lr=3e-3, batch_size=16, slow_epochs=2, fast_epochs=6, n_eval_neg=300
            ),
            setups=3,
        ),
    )
}


def make_config(workload, seed, **extra):
    overrides = dict(workload.config, base_seed=seed, seeds=1, record_timing=False, **extra)
    cfg = config.load_config(overrides=overrides)
    if cfg.slow_epochs > cfg.patience + 1:
        raise ValueError("early stopping could cut slow training short; example counts would be wrong")
    return cfg


# ---------------------------------------------------------------------------
# counts


def training_examples(cfg, split, users, messages):
    """Forward+backward examples of one lifecycle: slow epochs, refreshes, fast epochs."""
    per_example = 1 + cfg.n_train_neg
    cap = cfg.max_positions_per_user
    slow = sum(min(len(split.users[u].slow) - 2, cap) for u in users) * cfg.slow_epochs
    refreshes = sum(
        min(len(split.users[m.user].slow) - 1, cap)
        for m in messages
        if m.kind == exchange.MessageKind.NEGATIVE_MEMORY_UP
    )
    fast = sum(len(split.users[u].fast) - 1 for u in users) * cfg.fast_epochs
    return per_example * (slow + refreshes + fast)


def rankings(split, users):
    """Test-phase rankings, slow and fast together."""
    return 2 * sum(len(split.users[u].test) for u in users)


def serving_events(split, users):
    return sum(len(split.users[u].fast) for u in users)


def upload_bytes(messages):
    """Wire bytes of every upload plus the downloads it triggered (round >= 1)."""
    return sum(len(exchange.encode_message(m)) for m in messages if m.round >= 1)


# ---------------------------------------------------------------------------
# correctness gates; each returns a list of violations


def check_messages(blobs, diagnostics):
    """Kinds match the counters, and every message re-encodes to its own bytes."""
    problems = []
    kinds = Counter()
    for i, blob in enumerate(blobs):
        try:
            msg = exchange.decode_message(blob)
            again = exchange.encode_message(msg)
        except exchange.WireError as err:
            problems.append(f"message {i}: {type(err).__name__}: {err}")
            continue
        if again != blob:
            problems.append(f"message {i} ({msg.kind.name}) re-encodes to different bytes")
        kinds[msg.kind] += 1
    expected = {
        exchange.MessageKind.NEGATIVE_MEMORY_UP: diagnostics["uploads"],
        exchange.MessageKind.INTEREST_DOWN: diagnostics["downloads"],
        exchange.MessageKind.GRU_N_SYNC: diagnostics["downloads"],
    }
    for kind, want in expected.items():
        if kinds[kind] != want:
            problems.append(f"{kinds[kind]} {kind.name} messages, diagnostics say {want}")
    if diagnostics["refreshes"] != diagnostics["uploads"]:
        problems.append(f"{diagnostics['refreshes']} refreshes for {diagnostics['uploads']} uploads")
    return problems


def check_records(records):
    return [
        f"{r.component} {r.metric}@{r.k} = {r.value!r} is not a finite value in [0, 1]"
        for r in records
        if not (math.isfinite(r.value) and 0.0 <= r.value <= 1.0)
    ]


def _encode_all(messages, label):
    blobs, problems = [], []
    for i, msg in enumerate(messages):
        try:
            blobs.append(exchange.encode_message(msg))
        except exchange.WireError as err:
            problems.append(f"{label} message {i}: {type(err).__name__}: {err}")
    return blobs, problems


def check_lifecycle(outcome):
    problems = check_records(outcome.records)
    for seed, messages in outcome.messages.items():
        blobs, unencodable = _encode_all(messages, f"seed {seed}")
        problems += unencodable + check_messages(blobs, outcome.diagnostics[seed])
    return problems


def check_message_log(path, diagnostics):
    """Read a message log through the library; returns (messages, violations).

    The decoded messages go through :func:`check_messages`, and writing them
    again through the library must give the log back byte for byte.
    """
    path = Path(path)
    try:
        messages = exchange.read_message_log(path)
    except exchange.WireError as err:
        return [], [f"{path.name}: {type(err).__name__}: {err}"]
    blobs, problems = _encode_all(messages, path.name)
    problems += check_messages(blobs, diagnostics)
    if not problems:
        again = path.with_name(path.name + ".again")
        exchange.write_message_log(again, messages)
        if again.read_bytes() != path.read_bytes():
            problems.append(f"{path.name} does not re-encode to its own bytes")
        again.unlink()
    return messages, problems


def check_replay(replayed, trained):
    """Replayed rows must equal the training-time rows exactly, one violation per row."""
    want = {(r.component, r.metric, r.k, r.seed): r for r in trained}
    got = {(r.component, r.metric, r.k, r.seed): r for r in replayed}
    return [
        f"{key}: replayed {got.get(key)} != trained {want.get(key)}"
        for key in sorted(want.keys() | got.keys(), key=str)
        if got.get(key) != want.get(key)
    ]


def ndcg10(records, component):
    return next(r.value for r in records if r.component == component and r.metric == "ndcg" and r.k == 10)


# ---------------------------------------------------------------------------
# lifecycle workloads


def lifecycle_setup(workload, seed, model_seed):
    """Corpus generation from ``seed``, split, and construction of the model seeded ``model_seed``."""
    cfg = make_config(workload, model_seed, data_format="cluster")
    split = data.phase_split(data.make_cluster_dataset(seed=seed, **workload.corpus), min_len=cfg.min_seq_len)
    users = sorted(split.users)
    harness._SeedRun(cfg, model_seed, split, users)
    return cfg, (split, users)


def lifecycle_body(cfg, prepared):
    return harness.run_lifecycle(cfg, prepared=prepared, collect_state=True)


# ---------------------------------------------------------------------------
# replay workload


_DIAGNOSTICS = re.compile(r"seed (\d+): uploads=(\d+) refreshes=(\d+) downloads=(\d+)")


class Replay:
    """Files and CLI calls of one eval-replay run inside ``workdir``.

    Set-up ``k`` writes the corpus and trains state ``k`` with model seed
    ``seed * setups + k``; every state shares the corpus, so the set-ups
    differ only in training randomness.  Body ``k`` replays state ``k``.
    """

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.corpus = self.workdir / "corpus.tsv"
        self.state = self.workdir / "state"
        self.flags = ["--data-format", "tsv", "--dataset", str(self.corpus), "--seeds", "1", "--record-timing", "false"]
        for key, value in workload.config.items():
            self.flags += [f"--{key.replace('_', '-')}", str(value)]

    def model_seed(self, k):
        return self.seed * self.workload.setups + k

    def config(self):
        return make_config(self.workload, self.seed, data_format="tsv", dataset=str(self.corpus))

    def setup(self, k):
        """Write the corpus as TSV, then one ``sfrec train --state-dir``; returns its diagnostics."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        interactions = data.make_cluster_dataset(seed=self.seed, **self.workload.corpus)
        with open(self.corpus, "w", encoding="utf-8") as fh:
            fh.writelines(f"{it.user}\t{it.item}\t{it.timestamp}\n" for it in interactions)
        out = self._cli(k, ["train", "--results", str(self._csv("trained", k)), "--state-dir", str(self.state)])
        found = _DIAGNOSTICS.search(out)
        if found is None:
            raise RuntimeError(f"sfrec train printed no diagnostics: {out!r}")
        uploads, refreshes, downloads = (int(g) for g in found.groups()[1:])
        return {"uploads": uploads, "refreshes": refreshes, "downloads": downloads}

    def body(self, k):
        """One ``sfrec eval`` of state ``k``."""
        seed = str(self.model_seed(k))
        self._cli(k, ["eval", "--state-dir", str(self.state), "--seed", seed, "--results", str(self._csv("replayed", k))])

    def _csv(self, kind, k):
        return self.workdir / f"{kind}{k}.csv"

    def _cli(self, k, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + self.flags + ["--base-seed", str(self.model_seed(k))])
        if code != 0:
            raise RuntimeError(f"sfrec {argv[0]} exited with {code}")
        return buf.getvalue()

    def message_log(self, k):
        return self.state / f"seed{self.model_seed(k)}.msgs"

    def trained(self, k):
        return harness.read_results(self._csv("trained", k))

    def replayed(self, k):
        return harness.read_results(self._csv("replayed", k))
