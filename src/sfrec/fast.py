"""Device-side recommender: dual GRUs over clicks and exposures.

One GRU encodes the short click sequence, the other the exposed-but-unclicked
stream; a target-aware blend of the two feeds the prediction head.  The
interactive wiring additionally receives the cloud's interest snapshot and
turns it into initial states for both GRUs.

The device never trains embeddings: it holds a frozen mirror of the cloud
table rows it has been sent (``sync_rows``).  Looking up a row that was never
synced is a hard error, which keeps the simulation honest about what is
actually on the device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import layers as ly

__all__ = ["FastModel", "FastForward", "ExposureMemory", "NegativeMemoryExport", "UnsyncedRowError"]


class UnsyncedRowError(KeyError):
    pass


class FastForward(NamedTuple):
    """(n, 1) probabilities plus the shared (1, d) pre-blend interest vectors (for diagnostics)."""

    prob: "ad.Tensor"
    r_click: "ad.Tensor"
    r_expose: "ad.Tensor"


@dataclass
class NegativeMemoryExport:
    """Upload value: GRU summary of exposures accumulated since last upload."""

    user: int
    r2_hat: np.ndarray
    count: int


class FastModel:
    def __init__(self, n_items, dim, rng, interactive, dtype=np.float64, name="fast/all", head_hidden=(64, 32)):
        self.dim = dim
        self.interactive = interactive
        self.n_items = n_items
        self._emb = np.zeros((n_items, dim), dtype=dtype)
        self._synced = np.zeros(n_items, dtype=bool)
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
        self.head = ly.MlpHead(head_in, rng, hidden=head_hidden, name=f"{name}/head", dtype=dtype)

    def params(self):
        out = self.gru_click.params() + self.gru_expose.params() + self.fusion.params()
        if self.interactive:
            out += [
                self.prior_gate_w,
                self.prior_gate_b,
                self.init_click_w,
                self.init_click_b,
                self.init_expose_w,
                self.init_expose_b,
            ]
        return out + self.head.params()

    def param_count(self):
        """Trainable scalars; the frozen embedding mirror is not a parameter."""
        return sum(p.data.size for p in self.params())

    def named_arrays(self):
        return {p.name: p.data for p in self.params()}

    def load_arrays(self, arrays):
        for p in self.params():
            src = np.asarray(arrays[p.name])
            if src.shape != p.data.shape:
                raise ad.ShapeError(f"{p.name}: cannot load {src.shape} into {p.data.shape}")
            p.data = src.astype(p.data.dtype, copy=True)

    # -- embedding mirror ------------------------------------------------------

    def sync_rows(self, ids, rows):
        idx = np.asarray(ids, dtype=np.intp)
        self._emb[idx, :] = np.asarray(rows, dtype=self._emb.dtype)
        self._synced[idx] = True

    def synced_ids(self):
        return np.nonzero(self._synced)[0]

    def export_device_state(self):
        """Copy of the embedding mirror and its synced mask."""
        return self._emb.copy(), self._synced.copy()

    def load_device_state(self, emb, synced):
        emb = np.asarray(emb)
        if emb.shape != self._emb.shape:
            raise ad.ShapeError(f"device mirror is {self._emb.shape}, cannot load {emb.shape}")
        self._emb = emb.astype(self._emb.dtype, copy=True)
        self._synced = np.asarray(synced, dtype=bool).reshape(self._synced.shape).copy()

    def lookup_np(self, ids):
        idx = ly.checked_ids(ids, self.n_items)
        missing = idx[~self._synced[idx]]
        if missing.size:
            raise UnsyncedRowError(f"item {missing[0]} was never synced to this device")
        return self._emb[idx, :]

    def lookup(self, ids):
        return ad.constant(self.lookup_np(ids))

    # -- forward graphs ----------------------------------------------------------

    def _encodings(self, clicked, exposed, init_click, init_expose):
        if len(clicked) == 0:
            raise ad.ShapeError("fast click sequences must be non-empty")
        r_click = ly.gru_encode(self.gru_click, self.lookup(clicked), init_click)
        r_expose = ly.gru_encode(self.gru_expose, self.lookup(exposed), init_expose)
        return r_click, r_expose

    def forward(self, clicked, exposed, candidates):
        """Plain wiring: both GRUs start from zero state and run once for all candidates."""
        if self.interactive:
            raise RuntimeError("interactive model: use forward_interactive")
        zero = ad.constant(np.zeros((1, self.dim), dtype=self._emb.dtype))
        r_click, r_expose = self._encodings(clicked, exposed, zero, zero)
        targets = self.lookup(candidates)
        blended = ly.target_aware_fusion(r_click, r_expose, targets, self.fusion)
        prob = ly.predict_head(self.head, ad.concat([blended, targets], axis=1))
        return FastForward(prob, r_click, r_expose)

    def _prior_states(self, r_n, r_t):
        """Blend the downloaded interest pair and project to GRU init states."""
        rn_c = ad.constant(np.asarray(r_n, dtype=self._emb.dtype))
        rt_c = ad.constant(np.asarray(r_t, dtype=self._emb.dtype))
        alpha = ad.sigmoid(ad.add(ad.matmul(ad.concat([rn_c, rt_c], axis=1), self.prior_gate_w), self.prior_gate_b))
        blended_prior = ad.add(
            ad.scale(alpha, rn_c), ad.scale(ad.affine(alpha, mul=-1.0, add=1.0), rt_c)
        )
        init_click = ad.relu(ad.add(ad.matmul(blended_prior, self.init_click_w), self.init_click_b))
        init_expose = ad.relu(ad.add(ad.matmul(blended_prior, self.init_expose_w), self.init_expose_b))
        return init_click, init_expose

    def forward_interactive(self, clicked, exposed, candidates, prior):
        """Cloud-primed wiring; ``prior`` supplies (r_n, r_t) arrays shared by all candidates."""
        if not self.interactive:
            raise RuntimeError("plain model: use forward")
        r_n, r_t = prior.r_n, prior.r_t
        if np.asarray(r_n).shape != (1, self.dim) or np.asarray(r_t).shape != (1, self.dim):
            raise ad.ShapeError(f"prior vectors must be (1,{self.dim})")
        init_click, init_expose = self._prior_states(r_n, r_t)
        r_click, r_expose = self._encodings(clicked, exposed, init_click, init_expose)
        targets = self.lookup(candidates)
        blended = ly.target_aware_fusion(r_click, r_expose, targets, self.fusion)
        rt_rep = ad.constant(np.repeat(np.asarray(r_t, dtype=self._emb.dtype), targets.shape[0], axis=0))
        prob = ly.predict_head(self.head, ad.concat([blended, rt_rep, targets], axis=1))
        return FastForward(prob, r_click, r_expose)

    def loss(self, clicked, exposed, candidates, labels, prior=None):
        """Summed (1,1) cross-entropy of one context's candidates against their 0/1 labels."""
        if self.interactive:
            out = self.forward_interactive(clicked, exposed, candidates, prior)
        else:
            out = self.forward(clicked, exposed, candidates)
        return ad.binary_cross_entropy(out.prob, labels)

    # -- batched no-graph scoring ---------------------------------------------

    def _prior_states_np(self, r_n, r_t):
        pair = np.hstack([r_n, r_t]).astype(self._emb.dtype)
        with np.errstate(over="ignore"):
            alpha = 1.0 / (1.0 + np.exp(-(pair @ self.prior_gate_w.data + self.prior_gate_b.data)))
        blended = alpha * r_n + (1.0 - alpha) * r_t
        init_click = np.maximum(blended @ self.init_click_w.data + self.init_click_b.data, 0.0)
        init_expose = np.maximum(blended @ self.init_expose_w.data + self.init_expose_b.data, 0.0)
        return init_click, init_expose

    def score_candidates(self, clicked, exposed, candidate_ids, prior=None):
        """Click probabilities for many candidates against one device context."""
        if len(clicked) == 0:
            raise ad.ShapeError("fast click sequences must be non-empty")
        if self.interactive:
            init_click, init_expose = self._prior_states_np(prior.r_n, prior.r_t)
        else:
            init_click = init_expose = np.zeros((1, self.dim), dtype=self._emb.dtype)
        r_click = self.gru_click.encode_np(self.lookup_np(clicked), init_click)
        r_expose = self.gru_expose.encode_np(self.lookup_np(exposed), init_expose)
        targets = self.lookup_np(candidate_ids)
        blended = ly.target_aware_fusion_np(self.fusion, r_click, r_expose, targets)
        if self.interactive:
            rt_rep = np.broadcast_to(np.asarray(prior.r_t, dtype=targets.dtype), targets.shape)
            feats = np.hstack([blended, rt_rep, targets])
        else:
            feats = np.hstack([blended, targets])
        return self.head.apply_np(feats)[:, 0]


class ExposureMemory:
    """Running GRU summary of everything shown to one user without a click.

    Items are buffered as shown and encoded at export time with the device's
    current exposure GRU; the hidden state carries across exports, so the
    memory is cumulative over the whole stream.
    """

    def __init__(self, dim, dtype=np.float64):
        self.hidden = np.zeros((1, dim), dtype=dtype)
        self.pending = []

    def record(self, item_ids):
        self.pending.extend(int(i) for i in item_ids)

    def export(self, model, user):
        count = len(self.pending)
        if count:
            rows = model.lookup_np(self.pending)
            self.hidden = model.gru_expose.encode_np(rows, self.hidden)
            self.pending = []
        return NegativeMemoryExport(user=user, r2_hat=self.hidden.copy(), count=count)
