"""Neural building blocks: embeddings, GRU, attention pooling, fusion, head.

All blocks follow the row-vector convention of the engine: activations are
``(1, d)`` rows, weight matrices multiply on the right (``x @ W + b``), and a
batch stacks rows.  The graph functions take a stack of ``n`` candidate
(target) rows, so one graph serves a whole training segment: several
consecutive contexts of one user or of several, each a positive and its
negatives.  The contexts share one history (the users' back to back) or one
stack of click/exposure windows (one per user), and each target row reads
its own context's part of it: ``din_attention`` masks the history to a
per-row window, ``gru_encode`` returns the states at per-row ``(window,
prefix length)`` reads from one pass over a zero-padded stack, and
``target_aware_fusion`` takes an interest row per target.
A head is an :class:`Mlp` ending in one unit, ``predict_head`` its sigmoid;
so is the attention unit, a ``[4d, k, 1]`` :class:`Mlp` that
``din_attention`` evaluates without building its pair features.  Every
block exposes ``params()`` for optimizer registration.

Attention pooling, the MLP, the target-aware fusion and a GRU sequence are
one fused tape node each; the MLP's and the fusion's hand-written backwards
repeat the float operations of the composed graphs they replaced, bit for
bit.  Run on constants with no tape open, every graph function records
nothing, which makes it the scoring path as well.  The GRU's one kernel
takes one step per input row (``GruCell.encode_np`` runs it on plain
arrays, over one sequence or a stack of equal-length windows), so a caller
can carry a hidden state forward a click at a time and reach the same bits
as encoding the whole sequence at once (the device model's
``DeviceSession`` does this).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = [
    "glorot",
    "EmbeddingTable",
    "OutOfVocabularyError",
    "checked_ids",
    "GruCell",
    "gru_encode",
    "Mlp",
    "din_attention",
    "target_aware_fusion",
    "predict_head",
]


def glorot(rng, fan_in, fan_out, dtype=np.float64):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


class OutOfVocabularyError(KeyError):
    pass


def checked_ids(ids, vocab_size):
    """``ids`` as a flat index array; any id outside [0, vocab_size) raises
    :class:`OutOfVocabularyError` (numpy would wrap negative ids silently)."""
    idx = np.asarray(ids, dtype=np.intp).reshape(-1)
    bad = idx[(idx < 0) | (idx >= vocab_size)]
    if bad.size:
        raise OutOfVocabularyError(f"item id {bad[0]} outside vocabulary of {vocab_size}")
    return idx


class EmbeddingTable:
    """Trainable (vocab, dim) lookup table.

    Rows start at seeded uniform(-0.05, 0.05).  The table is decayed by
    Adam's one rule, which decays only entries with a gradient in the current
    step, so the rows of items no example read never drift.
    """

    def __init__(self, vocab_size, dim, rng, name="emb", dtype=np.float64):
        data = rng.uniform(-0.05, 0.05, size=(vocab_size, dim)).astype(dtype)
        self.table = ad.parameter(data, name, decay=True)
        self.vocab_size = vocab_size
        self.dim = dim

    def lookup(self, ids):
        return ad.gather_rows(self.table, checked_ids(ids, self.vocab_size))

    def lookup_np(self, ids):
        return self.table.data[checked_ids(ids, self.vocab_size), :]

    def params(self):
        return [self.table]


class GruCell:
    """Standard GRU cell: z, r gates and tanh candidate, ``(1 - z) * h + z * candidate``.

    One kernel, :meth:`_fold`, runs T steps over an ``(n, hidden)`` state:
    :func:`gru_encode` is one tape node over it, :meth:`step` that node with
    one step, and :meth:`encode_np` the kernel on plain arrays.
    """

    def __init__(self, in_dim, hidden_dim, rng, name="gru", dtype=np.float64):
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim

        def w(tag, fi, fo):
            return ad.parameter(glorot(rng, fi, fo, dtype), f"{name}/{tag}", decay=True)

        def b(tag):
            return ad.parameter(np.zeros((1, hidden_dim), dtype=dtype), f"{name}/{tag}")

        self.w_z, self.u_z, self.b_z = w("w_z", in_dim, hidden_dim), w("u_z", hidden_dim, hidden_dim), b("b_z")
        self.w_r, self.u_r, self.b_r = w("w_r", in_dim, hidden_dim), w("u_r", hidden_dim, hidden_dim), b("b_r")
        self.w_h, self.u_h, self.b_h = w("w_h", in_dim, hidden_dim), w("u_h", hidden_dim, hidden_dim), b("b_h")

    GATE_NAMES = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")

    def params(self):
        return [self.w_z, self.u_z, self.b_z, self.w_r, self.u_r, self.b_r, self.w_h, self.u_h, self.b_h]

    def export_gates(self):
        """All nine gate tensors keyed by short name (w_z, u_z, ...)."""
        return {tag: p.data.copy() for tag, p in zip(self.GATE_NAMES, self.params())}

    def load_gates(self, arrays):
        """Overwrite all nine gate tensors in place, in their own dtype, from a short-name -> array mapping."""
        for tag, p in zip(self.GATE_NAMES, self.params()):
            src = np.asarray(arrays[tag])
            if src.shape != p.data.shape:
                raise ad.ShapeError(f"{p.name}: cannot load {src.shape} into {p.data.shape}")
            p.data[...] = src
            p.version += 1

    def _fold(self, xs, h):
        """Fold the cell over ``xs``, T ``(n, in)`` input blocks, from the ``(n, hidden)`` array ``h``.

        Returns the ``(T + 1, n, hidden)`` states and, per step, the z and r
        gates and the candidate.  The gate weights are stacked, so one product
        gives a step's three input projections and one its z and r recurrences
        (each block is that gate's own product, bit for bit).  Each step keeps
        its own input product: a T-row product rounds differently, and a
        carried click state must equal a full encode.
        """
        w = np.array([self.w_z.data, self.w_r.data, self.w_h.data])
        u_zr, b_zr = np.array([self.u_z.data, self.u_r.data]), np.array([self.b_z.data, self.b_r.data])
        steps, n, k, dtype = xs.shape[0], h.shape[0], self.hidden_dim, np.result_type(h, w)
        states = np.empty((steps + 1, n, k), dtype)
        states[0] = h
        gates, cands = np.empty((steps, 2, n, k), dtype), np.empty_like(states[1:])
        with np.errstate(over="ignore"):
            for j, x in enumerate(xs):
                h, zr, c = states[j], gates[j], cands[j]
                a = x @ w
                np.divide(1.0, 1.0 + np.exp(-(a[:2] + h @ u_zr + b_zr)), out=zr)
                z, r = zr
                np.tanh(a[2] + (r * h) @ self.u_h.data + self.b_h.data, out=c)
                np.add((1.0 - z) * h, z * c, out=states[j + 1])
        return states, gates, cands

    def _node(self, x, init, xs, reads=None):
        """One tape node over :meth:`_fold` of ``xs`` (T blocks of ``x``'s rows) from ``init``: with
        ``reads``, a ``(lengths, rows)`` pair of arrays, read i is the state of window ``rows[i]`` after
        ``lengths[i]`` steps, stacked; without, every window's state after all T.  Its backward runs
        BPTT, then one product per weight; a step no read reaches back to adds exact zeros."""
        n, k = init.shape[0], self.hidden_dim
        if x.shape[1] != self.in_dim or init.shape[1] != k or xs.shape[1] != n:
            raise ad.ShapeError(f"gru wants x (.,{self.in_dim}) and h ({n},{k}) rows, got {x.shape}, {init.shape}")
        states, gates, cands = self._fold(xs, init.data)
        out = states[-1] if reads is None else states[reads]

        def backward(g):
            steps = xs.shape[0]
            g_at = np.zeros((steps + 1, n, k), dtype=g.dtype)  # the output gradient on each state, per window
            if reads is None:
                g_at[steps] = g
            else:
                np.add.at(g_at.reshape(-1, k), reads[0] * n + reads[1], g)
            z, u_z_t, u_r_t, u_h_t = gates[:, 0], self.u_z.data.T, self.u_r.data.T, self.u_h.data.T
            d_sig, keep, d_tanh = gates * (1.0 - gates), 1.0 - z, z * (1.0 - cands * cands)
            d_a = np.empty((3, steps, n, k), dtype=g.dtype)  # pre-activation gradients of z, r and the candidate
            dh = g_at[steps]
            for j in range(steps - 1, -1, -1):
                da_z, da_r, da_c = d_a[:, j]
                np.multiply(dh, d_tanh[j], out=da_c)
                drh = da_c @ u_h_t
                np.multiply(dh, cands[j] - states[j], out=da_z)
                np.multiply(drh, states[j], out=da_r)
                d_a[:2, j] *= d_sig[j]
                if j or init.track:  # the gradient on the init state feeds only a tracked init
                    dh = dh * keep[j] + drh * gates[j, 1] + da_z @ u_z_t + da_r @ u_r_t + g_at[j]
            if init.track:
                init.accumulate(dh)
            d_a = d_a.reshape(3, steps * n, k)
            d_w = xs.reshape(steps * n, self.in_dim).T @ d_a
            d_u = states[:-1].reshape(steps * n, k).T @ d_a[:2]
            d_u_h = (gates[:, 1] * states[:-1]).reshape(steps * n, k).T @ d_a[2]
            d_b = d_a.sum(axis=1, keepdims=True)
            for p, dp in zip(self.params(), (d_w[0], d_u[0], d_b[0], d_w[1], d_u[1], d_b[1], d_w[2], d_u_h, d_b[2])):
                p.accumulate(dp)
            if x.track:
                dx = np.zeros_like(x.data)
                dx[: steps * n] = sum(da @ p.data.T for da, p in zip(d_a, (self.w_z, self.w_r, self.w_h)))
                x.accumulate(dx)

        return ad.node(out, (x, init, *self.params()), backward)

    def step(self, x, h):
        """One GRU step over ``n`` rows (x (n, in), h (n, hidden)): the sequence node with T = 1."""
        return self._node(x, h, x.data[None])

    def encode_np(self, seqs, init):
        """The ``(n, hidden)`` states after folding each window of ``seqs``, an ``(n, T, in)``
        stack of equal-length windows, from its row of the ``(n, hidden)`` ``init``, on plain
        arrays; a ``(T, in)`` sequence is the case n = 1.  For one sequence, encoding ``a + b``
        equals encoding ``b`` from the state ``a`` ends in, bit for bit; a window stacked with
        others can differ from its own encode in the last bits, as an n-row product rounds
        differently from a one-row one."""
        seqs = seqs[None] if seqs.ndim == 2 else seqs
        if seqs.ndim != 3 or seqs.shape[2] != self.in_dim or init.shape != (seqs.shape[0], self.hidden_dim):
            raise ad.ShapeError(
                f"gru wants (n,T,{self.in_dim}) windows and (n,{self.hidden_dim}) init rows, got {seqs.shape}, {init.shape}"
            )
        return self._fold(seqs.transpose(1, 0, 2), init)[0][-1].copy()  # not a view that keeps every state alive


def gru_encode(cell, seq, init, reads=None):
    """GRU states after prefixes of one window or of a stack of windows, as one tape node.

    ``init`` holds one start row per window, n in all.  ``seq`` holds the
    windows as T blocks of n rows, block j holding each window's j-th row,
    with a window shorter than T padded with zero rows at its end (one window
    is just its rows).  ``reads`` lists ``(row, length)`` pairs: the state of
    window ``row`` after its first ``length`` rows, stacked in the order given
    (repeats allowed; length 0 is the init row).  None reads each window after
    all T blocks.  One run of the longest read's steps gives every read, so
    training contexts whose windows only grow, of one user or of several
    stacked, read one pass; a read past its own window's rows reads a state
    that folded padding, so the caller keeps reads inside the windows.  When
    every read is its window's init row, in order, ``init`` itself returns.
    """
    n = init.shape[0]
    if seq.shape[0] % n:
        raise ad.ShapeError(f"a stack of {n} windows wants a multiple of {n} rows, got {seq.shape[0]}")
    steps = seq.shape[0] // n
    reads = np.asarray([(row, steps) for row in range(n)] if reads is None else reads, dtype=np.intp)
    if reads.ndim != 2 or reads.shape[1] != 2 or not len(reads):
        raise ad.ShapeError(f"gru reads want (row, length) pairs, got shape {reads.shape}")
    rows, lengths = reads.T
    if rows.min() < 0 or rows.max() >= n or lengths.min() < 0 or lengths.max() > steps:
        raise ad.ShapeError(f"gru reads want rows in [0, {n}) and lengths in [0, {steps}], got {reads.tolist()}")
    if not lengths.any() and np.array_equal(rows, np.arange(n)):
        return init
    top = lengths.max()
    return cell._node(seq, init, seq.data[: top * n].reshape(top, n, seq.shape[1]), (lengths, rows))


class Mlp:
    """Affine stack with ReLU between layers and a linear last layer."""

    def __init__(self, dims, rng, name="mlp", dtype=np.float64):
        if len(dims) < 2:
            raise ValueError("an Mlp needs at least input and output dims")
        self.dims = list(dims)
        self.weights = []
        self.biases = []
        for k, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
            self.weights.append(ad.parameter(glorot(rng, fi, fo, dtype), f"{name}/w{k}", decay=True))
            self.biases.append(ad.parameter(np.zeros((1, fo), dtype=dtype), f"{name}/b{k}"))

    def params(self):
        return [t for pair in zip(self.weights, self.biases) for t in pair]

    def apply(self, x):
        """The MLP on an (n, in) stack as one tape node; its backward runs :meth:`backprop`."""
        if x.shape[1] != self.dims[0] or x.dtype != self.weights[0].dtype:
            raise ad.ShapeError(f"mlp wants (n,{self.dims[0]}) {self.weights[0].dtype} input, got {x.shape} {x.dtype}")
        acts = self.activations(x.data)

        def backward(g):
            gx = self.backprop(acts, g)
            if x.track:
                x.accumulate(gx)

        return ad.node(acts[-1], (x, *self.params()), backward)

    def activations(self, x):
        """The input array and every layer's output, ``[x, h_1, ..., out]``."""
        acts = [x]
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = acts[-1] @ w.data + b.data
            acts.append(out if k == len(self.weights) - 1 else np.maximum(out, 0.0))
        return acts

    def backprop(self, acts, g):
        """Accumulate the parameter gradients of an :meth:`activations` run whose
        output gradient is ``g`` and return the input's gradient, with the float
        operations, in order, of the composed matmul, bias-add and ReLU nodes."""
        for k in range(len(self.weights) - 1, -1, -1):
            w, b = self.weights[k], self.biases[k]
            if k != len(self.weights) - 1:
                g = g * (acts[k + 1] > 0)
            if b.track:
                b.accumulate(g.sum(axis=0, keepdims=True))
            if w.track:
                w.accumulate(acts[k].T @ g)
            g = g @ w.data.T
        return g


def din_attention(mlp, history, targets, windows=None):
    """Weighted pool of history rows per target row: sum_j a_ij h_j, (n_targets, d).

    The weight a_ij is the local activation unit's relevance of history row
    h_j to target t_i: the :class:`Mlp` ``mlp``, of dims ``[4d, k, 1]``, maps
    the feature ``h_j (+) t_i (+) (h_j - t_i) (+) (h_j * t_i)`` to one
    unnormalized weight.  No softmax over the weights.

    ``windows`` gives each target row a ``[start, end)`` slice of the history
    rows; weights outside it are zero, in the forward and the backward.  As
    there is no softmax, a masked pool equals the pool over the window alone,
    so the training contexts of one user share one history (and its (l, k)
    term below) while each sees only its own window.  ``None`` gives every
    row the whole history.

    One fused tape node with a hand-written backward.  With the first weight
    split into d-row blocks ``W0 = [A; B; C; D]``, the pre-activation of the
    pair (t_i, h_j) is ``h_j (A + C) + t_i (B - C) + (h_j * t_i) D + b0``.  The
    first term is an (l, k) block computed once per history; the other two
    come from one (n, d) @ (d, l*k) product whose column block j is
    ``diag(h_j) D + (B - C)``.  The (n*l, 4d) pair features are never built.
    Run on constants with no tape open it records nothing, which makes it the
    scoring path as well.
    """
    l, d = history.shape
    n = targets.shape[0]
    if l < 1:
        raise ad.ShapeError("attention needs a non-empty history")
    if len(mlp.dims) != 3 or mlp.dims[0] != 4 * d or mlp.dims[2] != 1 or targets.shape[1] != d:
        raise ad.ShapeError(
            f"attention wants a [4d, k, 1] mlp, (l,d) history and (n,d) targets, "
            f"got {mlp.dims}, {history.shape}, {targets.shape}"
        )
    (w0, w1), (b0, b1) = mlp.weights, mlp.biases
    if not history.dtype == targets.dtype == w0.dtype:
        raise ad.ShapeError(f"mixed dtypes {history.dtype}, {targets.dtype}, {w0.dtype}")
    hd, td, w0d = history.data, targets.data, w0.data
    k = w0d.shape[1]
    ac = w0d[:d] + w0d[2 * d : 3 * d]
    bc = w0d[d : 2 * d] - w0d[2 * d : 3 * d]
    dd = w0d[3 * d :]
    hd_t = np.ascontiguousarray(hd.T)
    blocks = hd_t[:, :, None] * dd[:, None, :]
    blocks += bc[:, None, :]
    blocks = blocks.reshape(d, l * k)
    z = td @ blocks
    z += (hd @ ac + b0.data).reshape(1, l * k)
    hidden = np.maximum(z, 0.0, out=z).reshape(n, l, k)
    a = (hidden.reshape(n * l, k) @ w1.data).reshape(n, l) + b1.data
    mask = None if windows is None else _window_mask(windows, n, l)
    if mask is not None:
        a *= mask

    def backward(g):
        da = g @ hd_t
        if mask is not None:
            da *= mask
        dz = da[:, :, None] * (w1.data[:, 0] * (hidden > 0))
        dz_flat = dz.reshape(n, l * k)
        dz_hist = dz_flat.sum(axis=0).reshape(l, k)
        if b1.track:
            b1.accumulate(da.sum(keepdims=True))
        if w1.track:
            w1.accumulate(hidden.reshape(n * l, k).T @ da.reshape(n * l, 1))
        if b0.track:
            b0.accumulate(dz_hist.sum(axis=0, keepdims=True))
        d_blocks = (td.T @ dz_flat).reshape(d, l, k)
        if w0.track:
            h_tilde = hd_t @ dz_hist
            t_tilde = td.T @ dz.sum(axis=1)
            d_dd = (hd_t[:, None, :] @ d_blocks)[:, 0, :]
            w0.accumulate(np.concatenate([h_tilde, t_tilde, h_tilde - t_tilde, d_dd], axis=0))
        if history.track:
            history.accumulate(a.T @ g + dz_hist @ ac.T + (d_blocks @ dd[:, :, None])[:, :, 0].T)
        if targets.track:
            targets.accumulate(dz_flat @ blocks.T)

    return ad.node(a @ hd, (history, targets, w0, b0, w1, b1), backward)


def _window_mask(windows, n, l):
    """(n, l) 0/1 mask of ``[start, end)`` history windows, one per target row."""
    w = np.asarray(windows, dtype=np.intp)
    if w.shape != (n, 2):
        raise ad.ShapeError(f"attention wants one (start, end) window per target, ({n}, 2), got {w.shape}")
    start, end = w[:, :1], w[:, 1:]
    if np.any(start < 0) or np.any(end > l) or np.any(start >= end):
        raise ad.ShapeError(f"attention windows must be non-empty slices of the {l} history rows")
    pos = np.arange(l)
    return (pos >= start) & (pos < end)


def target_aware_fusion(r1, r2, targets, mlp):
    """Convex blend of two interest rows, weighted by relevance to each target.

    ``r1`` and ``r2`` are (n, d): one interest row of each kind per target
    row, so targets from different contexts blend their own context's
    interests.  One shared MLP scores each of them concatenated with its
    target; a softmax over the two logits gives that target's blend weights
    (a two-way softmax is the sigmoid of the logit difference).  Returns (n, d).

    One fused tape node, whose backward repeats the float operations of the
    composed graph (concats, MLP calls, ``l1 + (-1.0 * l2 + 0.0)``, a sigmoid
    and two scales) in that graph's reverse order."""
    if r1.shape != targets.shape or r2.shape != targets.shape:
        raise ad.ShapeError(
            f"fusion wants (n,d) interest rows per target, got {r1.shape}, {r2.shape} for targets {targets.shape}"
        )
    if not r1.dtype == r2.dtype == targets.dtype == mlp.weights[0].dtype:
        raise ad.ShapeError(f"mixed dtypes {r1.dtype}, {r2.dtype}, {targets.dtype}, {mlp.weights[0].dtype}")
    d = targets.shape[1]
    rd1, rd2, td = r1.data, r2.data, targets.data
    acts1 = mlp.activations(np.concatenate([rd1, td], axis=1))
    acts2 = mlp.activations(np.concatenate([rd2, td], axis=1))
    with np.errstate(over="ignore"):
        w1 = 1.0 / (1.0 + np.exp(-(acts1[-1] + (-1.0 * acts2[-1] + 0.0))))
    w2 = -1.0 * w1 + 1.0

    def backward(g):
        g_w2 = (g * rd2).sum(axis=1, keepdims=True)
        if r2.track:
            r2.accumulate(w2 * g)
        g_w1 = -1.0 * g_w2 + (g * rd1).sum(axis=1, keepdims=True)
        if r1.track:
            r1.accumulate(w1 * g)
        g_diff = g_w1 * w1 * (1.0 - w1)
        for r, acts, g_logit in ((r2, acts2, -1.0 * g_diff), (r1, acts1, g_diff)):
            g_pair = mlp.backprop(acts, g_logit)
            if r.track:
                r.accumulate(g_pair[:, :d])
            if targets.track:
                targets.accumulate(g_pair[:, d:])

    return ad.node(w1 * rd1 + w2 * rd2, (r1, r2, targets, *mlp.params()), backward)


def predict_head(head, features):
    """Click probability per feature row: the sigmoid of the :class:`Mlp` ``head``, (n, in) -> (n, 1)."""
    return ad.sigmoid(head.apply(features))
