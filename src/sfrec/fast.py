"""Device-side recommender: dual GRUs over clicks and exposures.

One GRU encodes the short click sequence, the other the exposed-but-unclicked
stream; a target-aware blend of the two feeds the prediction head.  The
interactive wiring additionally receives the cloud's interest snapshot and
turns it into initial states for both GRUs.  Exchange values are their
``exchange.SCHEMAS`` payload dicts: the prior ``{"r_n", "r_t"}``, the memory ``{"r2_hat"}``.

The device never trains embeddings and holds none: every read
(``lookup_np``) fetches the rows it reads from ``fetch``, the model's one
source of cloud rows, and returns them as a fresh array, so a row read
always equals the cloud's at that read and a caller may keep it.  Each
operation reads once: ``forward`` its windows and candidates together, a
session's ``advance`` its two whole windows, ``encode_contexts`` every
window it encodes, ``score_states`` (so a session's ``score``) its
candidates, ``ExposureMemory.export`` the items it encodes.

Both wirings run through one graph ``forward``, which takes the prior (the
plain wiring ignores it) and returns the (n, 1) click probabilities: an
encoder, the init states then both GRUs, feeds the scoring tail.  It takes a
candidate list and, optionally, a ``(clicks, exposures)`` prefix length per
candidate: training runs a segment (one user's consecutive contexts, whose
windows only grow) through one graph, each GRU running once over the longest
windows as one tape node and every candidate reading the states at its own
context's prefixes.  ``score_candidates`` is ``forward`` with no tape open.

Serving and evaluation run the two parts of ``forward`` apart: an encode
(the prior-derived init states, then both GRUs, running the training node's
kernel on plain arrays) and ``score_states``, the scoring tail (fusion,
feature concat, head) for any number of candidates against encoded states.
Evaluation, where no context depends on another, encodes all its contexts
at once with ``encode_contexts``: every prior's init states come from one
stacked projection, and each GRU folds every window of one length as one
stack, as GRU4Rec's session-parallel mini-batches do.  An n-row product
rounds differently from a one-row one, so those states, and a tail over many
contexts' rows, match ``score_candidates`` to the last bits only.

Serving goes event by event through a :class:`DeviceSession`, whose
``advance`` moves it to a click window, an exposure window and
(interactive) the downloaded prior, and whose ``score`` runs the tail
against the session's state.  A session carries one user's context from
event to event, as a session-based GRU carries its hidden state: while the
model's ``version`` and the prior hold, it keeps the init states and, since
a GRU state depends only on the bytes of the rows it folded, keeps the rows
each state encodes.  A GRU whose kept rows are, byte for byte, the head of
its new window's rows steps over only the rows the window gained; any other
GRU (its window slid or shrank, or a read rewrote a kept row) re-encodes
from its init state.  Each step is the one a full encode takes, so a
session scores as ``score_candidates`` on the same windows, bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import layers as ly

__all__ = [
    "FastModel",
    "DeviceSession",
    "ExposureMemory",
]


class FastModel:
    """The device model.  ``fetch`` maps an array of checked item ids to the
    cloud's current (len(ids), dim) rows of them; every read fetches through
    it, and the model keeps no row."""

    def __init__(self, n_items, dim, rng, interactive, fetch, dtype=np.float64, head_hidden=(64, 32)):
        name = "fast/all"  # every parameter name's prefix
        self.dim = dim
        self.interactive = interactive
        self.n_items = n_items
        self.fetch = fetch
        self.dtype = dtype
        self.gru_click = ly.GruCell(dim, dim, rng, name=f"{name}/gru_p", dtype=dtype)
        self.gru_expose = ly.GruCell(dim, dim, rng, name=f"{name}/gru_n", dtype=dtype)
        self.fusion = ly.Mlp([2 * dim, 16, 1], rng, name=f"{name}/fuse", dtype=dtype)
        if interactive:
            self.prior_gate_w = ad.parameter(ly.glorot(rng, 2 * dim, 1, dtype), f"{name}/prior_gate_w", decay=True)
            self.prior_gate_b = ad.parameter(np.zeros((1, 1), dtype=dtype), f"{name}/prior_gate_b")
            self.init_click_w = ad.parameter(ly.glorot(rng, dim, dim, dtype), f"{name}/init_p_w", decay=True)
            self.init_click_b = ad.parameter(np.zeros((1, dim), dtype=dtype), f"{name}/init_p_b")
            self.init_expose_w = ad.parameter(ly.glorot(rng, dim, dim, dtype), f"{name}/init_n_w", decay=True)
            self.init_expose_b = ad.parameter(np.zeros((1, dim), dtype=dtype), f"{name}/init_n_b")
            head_in = 3 * dim
        else:
            head_in = 2 * dim
        self.head = ly.Mlp([head_in, *head_hidden, 1], rng, name=f"{name}/head", dtype=dtype)
        self._versioned = self.params()  # what ``version`` sums, built once

    def params(self):
        out = self.gru_click.params() + self.gru_expose.params() + self.fusion.params()
        if self.interactive:
            out += [self.prior_gate_w, self.prior_gate_b, self.init_click_w, self.init_click_b]
            out += [self.init_expose_w, self.init_expose_b]
        return out + self.head.params()

    @property
    def version(self):
        """Goes up whenever a parameter is written: an optimizer step, a gate
        or checkpoint load.  A read fetches rows and leaves it alone: a session
        compares the rows it reads instead."""
        return sum([p.version for p in self._versioned])

    # -- cloud rows --------------------------------------------------------------

    def sync_rows(self, ids, rows):
        """A fresh array of the fetched cloud ``rows`` of ``ids``, one (len(ids), dim)
        row per id, which a caller may keep; rows of another shape are a ShapeError."""
        rows = np.array(rows, dtype=self.dtype)  # a copy: never a view of the table or of fetch's buffer
        if rows.shape != (len(ids), self.dim):
            raise ad.ShapeError(f"sync of {len(ids)} ids wants ({len(ids)}, {self.dim}) rows, got {rows.shape}")
        return rows

    def lookup_np(self, ids):
        """A fresh array of the cloud's current rows of ``ids``, fetched through ``fetch``;
        an id outside the vocabulary is an OutOfVocabularyError before anything is fetched."""
        idx = ly.checked_ids(ids, self.n_items)
        return self.sync_rows(idx, self.fetch(idx))

    # -- forward graphs ----------------------------------------------------------

    def _interest_rows(self, click_rows, expose_rows, n, init_click, init_expose, prefixes):
        """(n, d) click and exposure states, one row per candidate, from the windows' rows.

        Each GRU runs once over its window; a candidate reads the states at
        its ``(clicks, exposures)`` prefix lengths (None: the whole windows).
        """
        if prefixes is None:
            prefixes = [(len(click_rows), len(expose_rows))] * n
        if np.shape(prefixes) != (n, 2):
            raise ad.ShapeError(f"fast prefixes want one (clicks, exposures) pair per candidate, ({n}, 2)")
        click_lengths = [int(c) for c, _ in prefixes]
        expose_lengths = [int(e) for _, e in prefixes]
        if min(click_lengths) < 1:
            raise ad.ShapeError("fast click sequences must be non-empty")
        r_click = ly.gru_encode(self.gru_click, ad.constant(click_rows), init_click, click_lengths)
        r_expose = ly.gru_encode(self.gru_expose, ad.constant(expose_rows), init_expose, expose_lengths)
        return r_click, r_expose

    def _prior_states(self, prior):
        """Both GRUs' (1, d) init states, projected from the blended pair of the
        ``INTEREST_DOWN`` payload ``prior``, and the (1, d) ``r_t`` the head reads; a missing
        prior or a missing or misshapen row is a ShapeError.  Plain wiring: zero states, no ``r_t``."""
        if not self.interactive:
            zero = ad.constant(np.zeros((1, self.dim), dtype=self.dtype))
            return zero, zero, None
        r_n, r_t = self._prior_rows(prior)
        return (*self._init_states(r_n, r_t), r_t)

    def _prior_rows(self, prior):
        """The checked (1, d) ``r_n`` and ``r_t`` rows of the interactive wiring's ``prior``."""
        if prior is None:
            raise ad.ShapeError("the interactive device model needs a prior (r_n, r_t), got None")
        r_n, r_t = (np.asarray(prior.get(key), dtype=self.dtype) for key in ("r_n", "r_t"))
        if r_n.shape != (1, self.dim) or r_t.shape != (1, self.dim):
            raise ad.ShapeError(f"prior vectors must be (1,{self.dim}), got {r_n.shape} and {r_t.shape}")
        return r_n, r_t

    def _init_states(self, r_n, r_t):
        """Both GRUs' (m, d) init states from m stacked ``r_n`` and ``r_t`` rows, row by row."""
        rn_c, rt_c = ad.constant(r_n), ad.constant(r_t)
        alpha = ad.sigmoid(ad.add(ad.matmul(ad.concat([rn_c, rt_c], axis=1), self.prior_gate_w), self.prior_gate_b))
        blended_prior = ad.add(
            ad.scale(alpha, rn_c), ad.scale(ad.affine(alpha, mul=-1.0, add=1.0), rt_c)
        )
        init_click = ad.relu(ad.add(ad.matmul(blended_prior, self.init_click_w), self.init_click_b))
        init_expose = ad.relu(ad.add(ad.matmul(blended_prior, self.init_expose_w), self.init_expose_b))
        return init_click, init_expose

    def _score(self, r_click, r_expose, targets, r_t):
        """The scoring tail, fusion and head: (n, 1) probabilities from (n, d) click
        and exposure rows and targets (plus the shared (1, d) ``r_t``, interactive)."""
        feats = [ly.target_aware_fusion(r_click, r_expose, targets, self.fusion), targets]
        if self.interactive:
            feats.insert(1, ad.constant(r_t.repeat(targets.shape[0], axis=0)))
        return ly.predict_head(self.head, ad.concat(feats, axis=1))

    def forward(self, clicked, exposed, candidates, prior=None, prefixes=None):
        """(n, 1) click probabilities, one row per candidate.

        The interactive wiring starts both GRUs from states derived from
        ``prior``, whose (1, d) ``r_n`` and ``r_t`` all candidates share, and
        its head also reads ``r_t``; the plain wiring ignores ``prior`` and
        starts both GRUs from zero.
        """
        init_click, init_expose, r_t = self._prior_states(prior)
        rows = self.lookup_np([*clicked, *exposed, *candidates])  # one read: both windows, then the candidates
        nc, ne = len(clicked), len(exposed)
        r_click, r_expose = self._interest_rows(
            rows[:nc], rows[nc : nc + ne], len(candidates), init_click, init_expose, prefixes
        )
        return self._score(r_click, r_expose, ad.constant(rows[nc + ne :]), r_t)

    def loss(self, clicked, exposed, candidates, labels, prior=None, prefixes=None):
        """Summed (1,1) cross-entropy of one segment's candidates against their 0/1 labels.

        A segment is a run of contexts whose click and exposure windows are
        prefixes of ``clicked`` and ``exposed``; ``prefixes`` holds each
        candidate's ``(clicks, exposures)`` lengths (None: one context, every
        candidate sees both whole windows).  The plain wiring ignores ``prior``.
        """
        return ad.binary_cross_entropy(self.forward(clicked, exposed, candidates, prior, prefixes), labels)

    # -- scoring, with no tape open --------------------------------------------

    def score_candidates(self, clicked, exposed, candidate_ids, prior=None):
        """Click probabilities for many candidates against one device context: ``forward`` with no tape open."""
        return self.forward(clicked, exposed, candidate_ids, prior).data[:, 0]

    def score_states(self, r_click, r_expose, candidate_ids, r_t=None):
        """Click probabilities for many candidates against encoded contexts: ``forward``'s
        scoring tail after one read of the candidates.  ``r_click`` and ``r_expose`` each hold
        one state row per candidate or one ``(1, d)`` row that every candidate reads; ``r_t`` is
        the ``(1, d)`` long-term row the interactive head reads (None in the plain wiring)."""
        targets = self.lookup_np(candidate_ids)
        n = targets.shape[0]
        r_click, r_expose = (ad.constant(r if len(r) == n else r.repeat(n, axis=0)) for r in (r_click, r_expose))
        return self._score(r_click, r_expose, ad.constant(targets), r_t).data[:, 0]

    def encode_contexts(self, contexts):
        """Both GRUs' states for many device contexts at once, with no tape open.

        ``contexts`` holds ``(click windows, exposed, prior)`` triples: a list of
        non-empty click windows that share one exposure window and prior.  One
        read fetches every window's rows, one pass over the stacked priors
        derives every context's init states, and each GRU folds all its
        windows of one length in one ``encode_np`` call (an empty window's
        state is its init row).  Returns the ``(m, d)`` click states, one per
        click window in order, the ``(len(contexts), d)`` exposure states, and
        each context's ``r_t``.
        """
        click_windows = [window for clicks, _, _ in contexts for window in clicks]
        if not all(map(len, click_windows)):
            raise ad.ShapeError("fast click sequences must be non-empty")
        if self.interactive:
            r_n, r_t = (np.concatenate(rows) for rows in zip(*[self._prior_rows(prior) for _, _, prior in contexts]))
            init_click, init_expose = (state.data for state in self._init_states(r_n, r_t))
            r_ts = list(r_t[:, None])
        else:
            init_click = init_expose = np.zeros((len(contexts), self.dim), dtype=self.dtype)
            r_ts = [None] * len(contexts)
        owners = np.repeat(np.arange(len(contexts)), [len(clicks) for clicks, _, _ in contexts])
        expose_windows = [exposed for _, exposed, _ in contexts]
        rows = self.lookup_np([i for window in expose_windows + click_windows for i in window])
        ne = sum(map(len, expose_windows))
        r_expose = _fold_windows(self.gru_expose, rows[:ne], list(map(len, expose_windows)), init_expose)
        r_click = _fold_windows(self.gru_click, rows[ne:], list(map(len, click_windows)), init_click[owners])
        return r_click, r_expose, r_ts


class DeviceSession:
    """One user's device context, carried from event to event.

    ``advance`` reads both whole windows, kept rows too.  Where the model's
    ``version`` moved or the prior is another object, it first rebuilds the
    prior-derived init states and drops the kept rows; then each GRU whose
    kept rows (``click_rows``, ``expose_rows``: what its state encodes) are,
    byte for byte, the head of its window's rows steps over only the rows
    past them, and any other re-encodes from its init state (which reads no
    embedding row).  The session holds the encoded context: the GRUs' init
    states (prior-derived, or zero in the plain wiring), their states
    ``r_click`` and ``r_expose`` with the rows they encode, and the
    long-term interest row ``r_t`` the interactive head reads (None in the
    plain wiring).  ``score`` rates candidates against it.
    """

    def __init__(self, model):
        self.model = model
        self.init_click = self.init_expose = self.r_click = self.r_expose = self.r_t = None
        self.click_rows = self.expose_rows = self.prior = self.version = None

    def advance(self, clicked, exposed, prior=None):
        """Move the session to the ``clicked`` and ``exposed`` windows under
        ``prior``; an advance that raises leaves the session as it was."""
        model, nc = self.model, len(clicked)
        if not nc:
            raise ad.ShapeError("fast click sequences must be non-empty")
        rows = model.lookup_np([*clicked, *exposed])  # a fresh array, so its slices can be kept
        click_rows, expose_rows = rows[:nc], rows[nc:]
        init_click, init_expose, r_t, version = self.init_click, self.init_expose, self.r_t, model.version
        r_click, r_expose, old_click, old_expose = self.r_click, self.r_expose, self.click_rows, self.expose_rows
        if version != self.version or prior is not self.prior:
            init_click, init_expose, r_t = model._prior_states(prior)
            init_click = r_click = init_click.data
            init_expose = r_expose = init_expose.data
            old_click = old_expose = rows[:0]
        r_click = _carry(model.gru_click, old_click, click_rows, r_click, init_click)
        r_expose = _carry(model.gru_expose, old_expose, expose_rows, r_expose, init_expose)
        self.init_click, self.init_expose, self.r_t, self.version = init_click, init_expose, r_t, version
        self.r_click, self.r_expose, self.click_rows, self.expose_rows = r_click, r_expose, click_rows, expose_rows
        self.prior = prior

    def score(self, candidate_ids):
        """Click probabilities for many candidates against the session's context: forward's scoring tail."""
        return self.model.score_states(self.r_click, self.r_expose, candidate_ids, self.r_t)


def _fold_windows(cell, rows, lengths, init):
    """The state of ``cell`` after each window, from its row of ``init``: ``rows``
    holds the windows back to back, ``lengths`` rows each.  One ``encode_np``
    call per distinct non-zero length; an empty window's state is its init row."""
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    states = init.copy()
    for length in np.unique(lengths[lengths > 0]):
        which = np.flatnonzero(lengths == length)
        states[which] = cell.encode_np(rows[starts[which, None] + np.arange(length)], init[which])
    return states


def _carry(cell, old_rows, new_rows, state, init):
    """``state``, the encoding of ``old_rows``, moved to ``new_rows``: stepped over
    the rows past ``old_rows`` where those are bit for bit the head of ``new_rows``
    (equal bytes, equal inputs, so the state a full encode reaches), else re-encoded from ``init``."""
    kept = len(old_rows)
    if new_rows[:kept].tobytes() != old_rows.tobytes():  # slid, shrank, or a kept row rewritten
        state, kept = init, 0
    return cell.encode_np(new_rows[kept:], state) if len(new_rows) > kept else state


class ExposureMemory:
    """Running GRU summary of everything shown to one user without a click.

    ``export`` reads the user's exposure log (one list of shown items per
    serving step) and encodes, with the device's current exposure GRU, only
    its steps past ``steps``, the count earlier exports encoded; the hidden
    state carries across exports, so the memory is cumulative over the whole
    stream.
    """

    def __init__(self, dim, dtype=np.float64):
        self.hidden = np.zeros((1, dim), dtype=dtype)
        self.steps = 0

    def export(self, model, shown):
        """The ``NEGATIVE_MEMORY_UP`` payload ``{"r2_hat"}``, after encoding the steps of ``shown`` since the last export."""
        items = [int(i) for step in shown[self.steps :] for i in step]
        if items:
            self.hidden = model.gru_expose.encode_np(model.lookup_np(items), self.hidden)
        self.steps = len(shown)
        return {"r2_hat": self.hidden.copy()}
