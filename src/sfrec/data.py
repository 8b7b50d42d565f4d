"""Dataset ingestion, temporal three-phase split, negatives, exposures.

Clicked sequences are ordered per user by timestamp with ties broken by file
order, then cut into three consecutive phases: the last 5 items are test, the
5 before those are the device-side training phase, and everything earlier
trains the cloud side.  Users and items below the interaction floor are
removed by alternating filters until stable.

Public datasets carry no impression logs, so exposures are simulated: the
harness draws a seeded handful of never-clicked candidates per serving event,
the current device model scores them, and the top few become the "shown but
not clicked" stream.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Interaction",
    "ParseError",
    "IdMap",
    "parse_ml1m",
    "parse_tsv",
    "group_by_user",
    "UserSplit",
    "PhaseSplit",
    "phase_split",
    "NegativeSampler",
    "simulate_exposures",
    "make_cluster_dataset",
]


@dataclass(frozen=True)
class Interaction:
    user: int
    item: int
    timestamp: int


class ParseError(ValueError):
    pass


class IdMap:
    """Dense re-indexing of raw ids, bijective by construction.

    Raw ids are sorted before numbering so the mapping is independent of the
    order they appear in the file.
    """

    def __init__(self, raw_ids):
        self.dense_to_raw = sorted(set(raw_ids))
        self.raw_to_dense = {raw: i for i, raw in enumerate(self.dense_to_raw)}

    def __len__(self):
        return len(self.dense_to_raw)

    def to_dense(self, raw):
        return self.raw_to_dense[raw]

    def to_raw(self, dense):
        return self.dense_to_raw[dense]


def _densify(rows):
    users = IdMap(r[0] for r in rows)
    items = IdMap(r[1] for r in rows)
    interactions = [
        Interaction(users.to_dense(u), items.to_dense(i), ts) for u, i, ts in rows
    ]
    return interactions, users, items


def _numbered_lines(path):
    """``(lineno, line)`` of a UTF-8 text file, ``\\r\\n`` read as ``\\n``; non-UTF-8 bytes are a :class:`ParseError`."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as err:
                raise ParseError(f"{path}:{lineno}: not UTF-8 text ({err.reason})") from None
            yield lineno, line.replace("\r\n", "\n")


def parse_ml1m(path):
    """Read a MovieLens-1M ratings file: ``UserID::MovieID::Rating::Timestamp``.

    Every rating line counts as one click regardless of the rating value.
    Returns (interactions, user id map, item id map) with ids re-indexed
    densely from 0.
    """
    rows = []
    for lineno, line in _numbered_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("::")
        if len(parts) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 '::'-separated fields, got {len(parts)}")
        try:
            user, item, _rating, ts = int(parts[0]), int(parts[1]), parts[2], int(parts[3])
        except ValueError as err:
            raise ParseError(f"{path}:{lineno}: {err}") from None
        rows.append((user, item, ts))
    return _densify(rows)


def parse_tsv(path):
    """Generic adapter: ``user<TAB>item<TAB>timestamp[<TAB>click]`` per line.

    Every row is a click; a fourth field other than ``click`` raises
    :class:`ParseError` naming the line.
    """
    rows = []
    for lineno, line in _numbered_lines(path):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise ParseError(f"{path}:{lineno}: expected 3 or 4 tab-separated fields")
        if len(parts) == 4 and parts[3] != "click":
            raise ParseError(f"{path}:{lineno}: interaction kind {parts[3]!r} is not 'click'")
        try:
            rows.append((int(parts[0]), int(parts[1]), int(parts[2])))
        except ValueError as err:
            raise ParseError(f"{path}:{lineno}: {err}") from None
    return _densify(rows)


def group_by_user(interactions):
    """Per-user interaction lists ordered by timestamp, file order on ties."""
    by_user = {}
    for pos, it in enumerate(interactions):
        by_user.setdefault(it.user, []).append((it.timestamp, pos, it))
    return {u: [it for _, _, it in sorted(rows)] for u, rows in by_user.items()}


@dataclass
class UserSplit:
    slow: list
    fast: list
    test: list

    def all_items(self):
        return self.slow + self.fast + self.test


@dataclass
class PhaseSplit:
    users: dict = field(default_factory=dict)
    dropped_users: int = 0
    retained_items: set = field(default_factory=set)
    vocab_size: int = 0


def phase_split(interactions, min_len=20):
    """Cut each user's click sequence into slow/fast/test phases.

    Items with fewer than ``min_len`` clicks and users with fewer than
    ``min_len`` clicks are alternately removed until both floors hold, then
    each surviving sequence is partitioned: first l-10 / next 5 / last 5.
    """
    by_user = group_by_user(interactions)
    sequences = {u: [it.item for it in rows] for u, rows in by_user.items()}
    total_users = len(sequences)

    while True:
        item_counts = Counter(item for seq in sequences.values() for item in seq)
        keep_items = {i for i, c in item_counts.items() if c >= min_len}
        filtered = {}
        for u, seq in sequences.items():
            kept = [i for i in seq if i in keep_items]
            if len(kept) >= min_len:
                filtered[u] = kept
        stable = len(filtered) == len(sequences) and all(
            filtered[u] == sequences[u] for u in filtered
        )
        sequences = filtered
        if stable:
            break

    split = PhaseSplit(dropped_users=total_users - len(sequences))
    vocab = 0
    for u in sorted(sequences):
        seq = sequences[u]
        l = len(seq)
        split.users[u] = UserSplit(slow=seq[: l - 10], fast=seq[l - 10 : l - 5], test=seq[l - 5 :])
        split.retained_items.update(seq)
        vocab = max(vocab, max(seq) + 1)
    split.vocab_size = vocab
    return split


_KEY_BLOCK = 1 << 20  # random keys a table fill holds at once (8 MB): long histories fill in blocks of rows


class NegativeSampler:
    """Deterministic whole-table negative draws.

    Each ``(user, phase, n)`` gets its own generator derived from the base
    seed, which fills the whole ``(positions, n)`` table at once: row j holds
    the ``n`` negatives of the phase's j-th position, the items with the ``n``
    smallest of one row of uniform random keys over the items the user never
    clicked, in key order (Efraimidis & Spirakis' random keys).  So negatives
    are uniform over the unseen items and distinct within a row, and any
    draw is reproducible regardless of the order requests arrive in.  The
    generator fills keys row by row, so a table drawn with more rows (a
    position past the phase) starts with the same rows.  Training tables are
    memoised, since training redraws the same slow positions in every epoch
    and refresh; a test table, drawn once per evaluation, is not kept.
    """

    _PHASES = {"slow": 0, "fast": 1, "test": 2}

    def __init__(self, split, n_items, seed):
        self.split = split
        self.n_items = n_items
        self.seed = seed
        self._complements = {}
        self._tables = {}

    def complement(self, user):
        """All item ids the user never clicked, ascending."""
        cached = self._complements.get(user)
        if cached is None:
            unseen = np.ones(self.n_items, dtype=bool)
            unseen[np.fromiter(self.split.users[user].all_items(), dtype=np.int64)] = False
            cached = np.flatnonzero(unseen).astype(np.int64, copy=False)
            if cached.size == 0:
                raise ValueError(f"user {user} has clicked every item; cannot sample negatives")
            self._complements[user] = cached
        return cached

    def table(self, user, phase, n, rows=0):
        """The read-only ``(positions, n)`` table of ``user``'s ``phase``
        negatives, row j for position j, with at least ``rows`` rows."""
        rows = max(rows, len(getattr(self.split.users[user], phase)))
        table = self._tables.get((user, phase, n))
        if table is None or len(table) < rows:
            table = self._draw_table(user, phase, n, rows)
            if phase != "test":
                self._tables[user, phase, n] = table
        return table

    def draw(self, user, phase, index, n):
        """``n`` distinct negatives for ``user``'s ``index``-th ``phase`` position, as a read-only array."""
        if index < 0:
            raise ValueError(f"negative position index {index}")
        return self.table(user, phase, n, rows=index + 1)[index]

    def _draw_table(self, user, phase, n, rows):
        """A new ``(rows, n)`` table from the key's own generator; its random
        keys, at most ``_KEY_BLOCK`` at a time, live only here."""
        pool = self.complement(user)
        if n > pool.size:
            raise ValueError(f"user {user}: asked for {n} negatives, only {pool.size} unseen items")
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(self._PHASES[phase], user, n)))
        table = np.empty((rows, n), dtype=np.int64)
        step = max(1, _KEY_BLOCK // pool.size)
        for start in range(0, rows, step):  # keys come row by row, so blocks of rows draw what one block would
            keys = rng.random((min(step, rows - start), pool.size))
            picked = np.argpartition(keys, max(n - 1, 0), axis=1)[:, :n]
            # in key order: the keys (distinct almost surely) fix it whatever order the partition leaves
            picked = np.take_along_axis(picked, np.take_along_axis(keys, picked, axis=1).argsort(axis=1), axis=1)
            table[start : start + len(keys)] = pool[picked]
        table.flags.writeable = False
        return table


def simulate_exposures(score_fn, candidates, expose_k):
    """The ``expose_k`` of ``candidates`` (an id array) a serving pass would
    have shown without a click, best first by ``score_fn``, the current device
    model's scorer.  Ties break by id so reruns are identical.
    """
    scores = np.asarray(score_fn(candidates))
    order = np.lexsort((candidates, -scores))
    return [int(i) for i in candidates[order[:expose_k]]]


def make_cluster_dataset(n_users=200, n_items=100, n_clusters=4, seed=0):
    """Planted-preference synthetic data: each user clicks one item cluster.

    Items split evenly into clusters; user u belongs to cluster u mod
    n_clusters and clicks a seeded shuffle of that whole block, one tick
    apart.  With the default sizes every user has 25 clicks and every item
    50, so nothing is filtered away.
    """
    if n_items % n_clusters:
        raise ValueError("n_items must divide evenly into clusters")
    block = n_items // n_clusters
    rng = np.random.default_rng(seed)
    interactions = []
    for user in range(n_users):
        cluster = user % n_clusters
        items = np.arange(cluster * block, (cluster + 1) * block)
        rng.shuffle(items)
        for t, item in enumerate(items):
            interactions.append(Interaction(user=user, item=int(item), timestamp=t))
    return interactions
