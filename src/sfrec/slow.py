"""Cloud-side recommender: attention pooling over long histories.

Two wirings share one parameter set shape: the plain variant scores a
candidate from the pooled history alone, and the interactive variant also
consumes the device's negative-memory vector through a gated GRU step.  The
prediction head width differs between them (2d vs 3d input), so a model is
constructed for one wiring and stays there.  ``forward`` is the head over
one encoder, which takes the exchange input that the plain wiring ignores.
``export_interest`` runs the encoder alone and returns the ``INTEREST_DOWN``
payload dict of :data:`sfrec.exchange.SCHEMAS` itself.

``forward`` takes a candidate list and gives one row per candidate, with an
optional ``[start, end)`` history window and negative-memory row per
candidate.  Training builds one graph per segment: a run of consecutive
contexts (each a positive plus its negatives) of one user or of several,
over their users' histories back to back (each the union of its contexts'
windows), each candidate attending only to its own context's window and
reading its own user's negative memory.  A single context is a segment of
one (every window the whole history).
Scoring large candidate sets goes through ``score_candidates``, which is
``forward`` run with no tape open: each op computes its value and records
nothing, and the attention pool and the head's MLP are one fused node each.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import layers as ly

__all__ = ["SlowModel"]


class SlowModel:
    def __init__(self, n_items, dim, rng, interactive, dtype=np.float64, head_hidden=(64, 32)):
        self.dim = dim
        self.interactive = interactive
        self.embedding = ly.EmbeddingTable(n_items, dim, rng, name="slow/emb", dtype=dtype)
        self.attention = ly.Mlp([4 * dim, 16, 1], rng, name="slow/att", dtype=dtype)
        if interactive:
            self.gru_n = ly.GruCell(dim, dim, rng, name="slow/gru_n", dtype=dtype)
            self.gate_w = ad.parameter(ly.glorot(rng, 2 * dim, 1, dtype), "slow/gate_w", decay=True)
            self.gate_b = ad.parameter(np.zeros((1, 1), dtype=dtype), "slow/gate_b")
            head_in = 3 * dim
        else:
            head_in = 2 * dim
        self.head = ly.Mlp([head_in, *head_hidden, 1], rng, name="slow/head", dtype=dtype)

    def params(self):
        out = self.embedding.params() + self.attention.params()
        if self.interactive:
            out += self.gru_n.params() + [self.gate_w, self.gate_b]
        return out + self.head.params()

    # -- forward graph -------------------------------------------------------

    def _interests(self, seq_ids, candidates, neg_memory=None, windows=None):
        """The encoder: the (n, d) candidate rows and the interest rows the head reads, ``[r_n, r_t]``
        (``[r_t]`` in the plain wiring, which ignores ``neg_memory``), one row per candidate."""
        if len(seq_ids) == 0:
            raise ad.ShapeError("slow sequences must be non-empty")
        if self.interactive:
            neg_memory = np.asarray(neg_memory)
            if neg_memory.shape not in ((1, self.dim), (len(candidates), self.dim)):
                raise ad.ShapeError(
                    f"negative memory must be (1,{self.dim}) or one row per candidate, got {neg_memory.shape}"
                )
        history = self.embedding.lookup(seq_ids)  # before the targets: both lookups feed one gradient
        targets = self.embedding.lookup(candidates)
        r_t = ly.din_attention(self.attention, history, targets, windows)
        if not self.interactive:
            return targets, [r_t]
        memory_state = ad.constant(np.broadcast_to(neg_memory, targets.shape).astype(targets.dtype))
        refreshed = self.gru_n.step(targets, memory_state)
        gate = ad.sigmoid(ad.add(ad.matmul(ad.concat([refreshed, targets], axis=1), self.gate_w), self.gate_b))
        return targets, [ad.scale(gate, refreshed), r_t]

    def forward(self, seq_ids, candidates, neg_memory=None, windows=None):
        """(n, 1) click probabilities, one row per candidate.

        ``windows`` holds one ``[start, end)`` slice of ``seq_ids`` per
        candidate (None: all of it for every candidate).  ``neg_memory`` is the
        device-uploaded negative memory: one (1, d) row every candidate
        shares, or one row per candidate (a segment of several users, each
        candidate reading its own user's); the plain wiring ignores it.
        """
        targets, interests = self._interests(seq_ids, candidates, neg_memory, windows)
        return ly.predict_head(self.head, ad.concat(interests + [targets], axis=1))

    def loss(self, seq_ids, candidates, labels, neg_memory=None, windows=None):
        """Training loss of one segment under the model's own wiring.

        ``seq_ids`` is the segment's shared history (the users' histories
        back to back, for a segment of several users), ``windows`` each
        candidate's ``[start, end)`` slice of it (None: one context, every
        candidate sees all of ``seq_ids``) and ``neg_memory`` one shared
        (1, d) row or one row per candidate.  ``labels`` holds a 0/1 label per
        candidate; the loss is the (1,1) sum of the per-candidate
        cross-entropies, which is the sum of the segment's context losses.
        """
        return ad.binary_cross_entropy(self.forward(seq_ids, candidates, neg_memory, windows), labels)

    # -- exchange ------------------------------------------------------------

    def export_interest(self, seq_ids, neg_memory=None):
        """A user's ``INTEREST_DOWN`` payload ``{"r_n", "r_t"}``, conditioned on their latest click.

        Before any upload has arrived (``neg_memory`` None) the r_n slot is
        all zeros, as there is no exposure signal to refresh; afterwards it is
        exactly the interactive encoder's r_n for the most recent slow-phase
        item (the head never runs).  The plain wiring always ships zeros there.
        """
        memory = np.zeros((1, self.dim)) if neg_memory is None else neg_memory
        _, interests = self._interests(seq_ids, [seq_ids[-1]], memory)
        r_t = interests[-1].data.copy()
        r_n = interests[0].data.copy() if self.interactive and neg_memory is not None else np.zeros_like(r_t)
        return {"r_n": r_n, "r_t": r_t}

    # -- scoring ----------------------------------------------------------------

    def score_candidates(self, seq_ids, candidate_ids, neg_memory=None):
        """Click probabilities for many candidates against one context: ``forward`` with no tape open."""
        return self.forward(seq_ids, candidate_ids, neg_memory).data[:, 0]
