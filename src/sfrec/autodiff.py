"""Dense 2-D tensor engine with reverse-mode differentiation.

Everything is a row-major matrix: vectors are ``(1, d)`` rows and scalars are
``(1, 1)``.  Ops record onto an explicitly opened :class:`Tape`; the tape's
insertion order is its topological order, so a backward pass is a single
reverse sweep.  No broadcasting is performed except the bias case
``(n, m) + (1, m)`` -- anything else must match shapes exactly and raises
:class:`ShapeError` naming the offending shapes.

Two precision modes are supported by construction: build parameters as
float64 for gradient checking (finite differences are unreliable at 32-bit)
and float32 for experiment runs.

Named tensors are stored by one record codec, :func:`encode_records` (whose
docstring holds the layout), :func:`decode_records` and
:class:`RecordReader`; SFPK checkpoints here and MCSF messages in
``sfrec.exchange`` add only their headers and typed errors.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_atomic

__all__ = [
    "Tensor",
    "Tape",
    "tape",
    "constant",
    "parameter",
    "ShapeError",
    "NonScalarLossError",
    "NanGradientError",
    "DetachedParameterError",
    "matmul",
    "add",
    "mul",
    "affine",
    "scale",
    "concat",
    "gather_rows",
    "sigmoid",
    "relu",
    "sum_all",
    "binary_cross_entropy",
    "Adam",
    "grad_check",
    "GradCheckReport",
    "RecordError",
    "RecordReader",
    "encode_records",
    "decode_records",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
    "load_params",
]


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to an op's rule."""


class NonScalarLossError(ValueError):
    """Raised when backward() is started from a non-(1,1) tensor."""


class NanGradientError(RuntimeError):
    """Raised by the optimizer when a gradient contains NaN/Inf."""


_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """A matrix value in the computation graph.

    ``track`` marks tensors whose gradient matters (parameters and anything
    computed from one).  Constants built from raw data are untracked, so
    subgraphs of constants cost nothing at backward time.  ``version`` counts
    the in-place writes to a parameter's values (optimizer steps and loads),
    so a cache of values computed from it can tell when it went stale.
    """

    __slots__ = ("data", "grad", "track", "name", "decay", "version", "_backward")

    def __init__(self, data, *, param=False, name=None, decay=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D matrices, got shape {arr.shape}")
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.track = param
        self.name = name
        self.decay = decay
        self.version = 0
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a (1,1) tensor, got {self.shape}")
        return float(self.data[0, 0])

    def accumulate(self, g):
        """Add ``g`` into this tensor's gradient slot; the first write stores a copy."""
        if self.grad is None:
            self.grad = g.astype(self.data.dtype)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{tag})"


class Tape:
    """Ordered record of op nodes; insertion order is topological order."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def backward(self, loss):
        """Reverse sweep from ``loss``, accumulating into .grad of tracked tensors."""
        if loss.data.shape != (1, 1):
            raise NonScalarLossError(f"loss must be (1,1), got {loss.data.shape}")
        loss.accumulate(np.ones_like(loss.data))
        for node in reversed(self.nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)


def tape():
    return Tape()


def constant(data, dtype=None):
    return Tensor(data, dtype=dtype)


def parameter(data, name, *, decay=False, dtype=None):
    return Tensor(data, param=True, name=name, decay=decay, dtype=dtype)


def _wrap(data):
    """Op-output constructor: ``data`` is already a 2-D float array, so the
    conversion and checks of :class:`Tensor` are skipped."""
    out = object.__new__(Tensor)
    out.data = data
    out.grad = None
    out.track = out.decay = False
    out.name = None
    out._backward = None
    return out


def node(data, parents, backward):
    """Create an op output.

    Records on the active tape only when some parent is tracked; otherwise the
    result is a plain untracked value (the no-grad fast path).  Every op
    hands in a 2-D array of its inputs' float dtype.
    """
    out = _wrap(data)
    if _ACTIVE_TAPE is not None and any(p.track for p in parents):
        out.track = True
        out._backward = backward
        _ACTIVE_TAPE.nodes.append(out)
    return out


def _require_same_dtype(*tensors):
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError(f"mixed dtypes {dt} vs {t.data.dtype}")
    return dt


# ---------------------------------------------------------------------------
# ops


def matmul(a, b):
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    _require_same_dtype(a, b)
    ad, bd = a.data, b.data

    def backward(g):
        if a.track:
            a.accumulate(g @ bd.T)
        if b.track:
            b.accumulate(ad.T @ g)

    return node(ad @ bd, (a, b), backward)


def add(a, b):
    """Elementwise add; also allows the bias case (n,m) + (1,m)."""
    bias = a.shape != b.shape
    if bias and not (b.shape == (1, a.shape[1])):
        raise ShapeError(f"add shapes differ: {a.shape} + {b.shape}")
    _require_same_dtype(a, b)

    def backward(g):
        if a.track:
            a.accumulate(g)
        if b.track:
            b.accumulate(g.sum(axis=0, keepdims=True) if bias else g)

    return node(a.data + b.data, (a, b), backward)


def mul(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} * {b.shape}")
    _require_same_dtype(a, b)
    ad, bd = a.data, b.data

    def backward(g):
        if a.track:
            a.accumulate(g * bd)
        if b.track:
            b.accumulate(g * ad)

    return node(ad * bd, (a, b), backward)


def affine(x, mul=1.0, add=0.0):
    """``mul * x + add`` with plain Python scalars (not graph nodes)."""

    def backward(g):
        if x.track:
            x.accumulate(mul * g)

    return node(mul * x.data + add, (x,), backward)


def scale(s, v):
    """Graph scalar times a matrix, or a column times a matrix row by row.

    ``s`` is (1,1), scaling all of ``v``, or (n,1) for an (n,m) ``v``,
    scaling row i by ``s[i]``.
    """
    if s.shape != (1, 1) and s.shape != (v.shape[0], 1):
        raise ShapeError(f"scale() wants a (1,1) scalar or a ({v.shape[0]},1) column, got {s.shape}")
    _require_same_dtype(s, v)
    column = s.shape != (1, 1)
    sd, vd = s.data, v.data

    def backward(g):
        if s.track:
            per_row = (g * vd).sum(axis=1, keepdims=True)
            s.accumulate(per_row if column else per_row.sum(axis=0, keepdims=True))
        if v.track:
            v.accumulate(sd * g)

    return node(sd * vd, (s, v), backward)


def concat(parts, axis=1):
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    if axis not in (0, 1):
        raise ShapeError(f"concat axis must be 0 or 1, got {axis}")
    other = 1 - axis
    w = parts[0].shape[other]
    for p in parts[1:]:
        if p.shape[other] != w:
            raise ShapeError(f"concat axis={axis} mismatch: {[p.shape for p in parts]}")
    _require_same_dtype(*parts)

    def backward(g):
        offsets = np.cumsum([0] + [p.shape[axis] for p in parts])
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.track:
                p.accumulate(g[lo:hi, :] if axis == 0 else g[:, lo:hi])

    return node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


def gather_rows(table, ids):
    """Rows ``ids`` of a matrix; gradient accumulates only into touched rows.

    An empty id list yields a (0, d) matrix.
    """
    idx = np.asarray(ids, dtype=np.intp).reshape(-1)

    def backward(g):
        if table.track:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, g)

    return node(table.data[idx, :], (table,), backward)


def sigmoid(a):
    with np.errstate(over="ignore"):
        out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.track:
            a.accumulate(g * out_data * (1.0 - out_data))

    return node(out_data, (a,), backward)


def relu(a):
    """``max(a, 0)``; a NaN input stays NaN, so the loss check downstream sees it."""
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        if a.track:
            a.accumulate(g * (out_data > 0))

    return node(out_data, (a,), backward)


def sum_all(a):
    def backward(g):
        if a.track:
            a.accumulate(np.full_like(a.data, g[0, 0]))

    return node(np.array([[a.data.sum()]], dtype=a.data.dtype), (a,), backward)


_BCE_EPS = 1e-7


def binary_cross_entropy(p, labels):
    """Summed ``-(y log p + (1-y) log(1-p))`` over an (n,1) probability column.

    ``labels`` holds one plain 0/1 label per row (not graph nodes); ``p`` is
    clamped to [1e-7, 1-1e-7].  The result is the (1,1) sum over rows.  Fused
    into one op: the hand-written backward keeps training graphs small.
    """
    y = np.asarray(labels, dtype=p.data.dtype).reshape(-1, 1)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError(f"labels must be 0 or 1, got {labels!r}")
    if p.shape != (y.shape[0], 1):
        raise ShapeError(f"binary_cross_entropy wants a ({y.shape[0]},1) probability column, got {p.shape}")
    pc = np.clip(p.data, _BCE_EPS, 1.0 - _BCE_EPS)
    inside = (p.data > _BCE_EPS) & (p.data < 1.0 - _BCE_EPS)
    losses = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))

    def backward(g):
        if p.track:
            p.accumulate(g * inside * (pc - y) / (pc * (1.0 - pc)))

    return node(np.array([[losses.sum()]], dtype=pc.dtype), (p,), backward)


# ---------------------------------------------------------------------------
# optimizer


class DetachedParameterError(RuntimeError):
    """Raised by the optimizer when a parameter's data no longer views its buffer slot."""


class Adam:
    """Adam with the L2 term folded into the gradient before the moment update.

    One decay rule: an entry of a ``decay=True`` parameter takes the L2 term
    in a step only where its own (scaled) gradient is nonzero.  An entry the
    data does not train (an embedding row no example read, the recurrence of a
    GRU fed zeros, a dead ReLU unit's weights) keeps its value; Adam normalises
    an L2 term standing alone, which would step it toward zero by about ``lr``
    every step.  Biases are created without the flag.

    The optimizer owns one contiguous buffer for its parameters (all of one
    dtype), laid out as the ``decay`` parameters, then the rest.  Construction
    copies each parameter into its slot and rebinds its ``data`` to a view of
    that slot.  A step gathers the gradients into one reused flat buffer and
    updates it with whole-vector ufuncs that repeat a per-parameter update's
    element-wise operations, so every bit matches one.  Load new values in
    place (``p.data[...] = values``): a parameter whose ``data`` was rebound
    raises :class:`DetachedParameterError` at the next step.
    """

    def __init__(self, params, lr=5e-4, beta1=0.9, beta2=0.999, eps=1e-8, l2_weight=1e-4):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("optimizer parameters must have unique names")
        dtype = self.params[0].data.dtype if self.params else np.dtype(np.float64)
        for p in self.params:
            if p.data.dtype != dtype:
                raise ShapeError(f"optimizer parameters mix dtypes: {p.name!r} is {p.data.dtype}, not {dtype}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.l2_weight = l2_weight
        self.step_count = 0

        total = sum(p.data.size for p in self.params)
        self._flat = np.empty(total, dtype=dtype)
        self._grad = np.empty(total, dtype=dtype)
        self._m = np.zeros(total, dtype=dtype)
        self._v = np.zeros(total, dtype=dtype)
        self._tmp = np.empty(total, dtype=dtype)
        self._n_decay = sum(p.data.size for p in self.params if p.decay)
        self._views = [None] * len(self.params)
        self._grads = [None] * len(self.params)
        lo = 0
        for i in sorted(range(len(self.params)), key=lambda i: not self.params[i].decay):
            p = self.params[i]
            hi = lo + p.data.size
            view = self._flat[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = self._views[i] = view
            self._grads[i] = self._grad[lo:hi].reshape(view.shape)
            lo = hi

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self, scale=1.0):
        """One Adam update over all registered parameters.

        ``scale`` multiplies raw gradients first (1/batch for accumulated
        minibatches).  Parameters with no gradient this step still advance
        their moments, as in any dense Adam.  A detached parameter or a
        non-finite gradient raises before any value or moment changes.
        """
        for p, view, grad in zip(self.params, self._views, self._grads):
            if p.data is not view:
                raise DetachedParameterError(
                    f"parameter {p.name!r} was rebound away from the optimizer's buffer; load values with p.data[...] ="
                )
            if p.grad is None:
                grad.fill(0.0)
            else:
                grad[...] = p.grad
        g, flat, m, v = self._grad, self._flat, self._m, self._v
        g *= scale
        if not np.isfinite(g).all():
            bad = next(p for p, grad in zip(self.params, self._grads) if not np.isfinite(grad).all())
            raise NanGradientError(f"non-finite gradient for parameter {bad.name!r}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        tmp = self._tmp
        if self.l2_weight:
            d = self._n_decay
            np.multiply(flat[:d], self.l2_weight, out=tmp[:d])
            np.add(g[:d], tmp[:d], out=g[:d], where=g[:d] != 0)
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - self.beta2
        v *= self.beta2
        v += tmp
        g *= 1.0 - self.beta1  # the last read of the gradient: g holds the update from here on
        m *= self.beta1
        m += g
        np.divide(m, bc1, out=g)
        g *= self.lr
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        g /= tmp
        flat -= g
        for p in self.params:
            p.version += 1


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Per-parameter comparison of analytic vs central-difference gradients."""

    tolerance: float
    per_param: dict = field(default_factory=dict)

    @property
    def max_rel_err(self):
        return max(self.per_param.values(), default=0.0)

    @property
    def passed(self):
        return self.max_rel_err < self.tolerance

    def __str__(self):
        lines = [f"{'parameter':<28} {'max rel err':>12}"]
        for name in sorted(self.per_param):
            lines.append(f"{name:<28} {self.per_param[name]:>12.3e}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict}: max {self.max_rel_err:.3e} vs tolerance {self.tolerance:.1e}")
        return "\n".join(lines)


def _rel_err(a, n):
    denom = max(abs(a), abs(n), 1e-5)
    return abs(a - n) / denom


def grad_check(loss_fn, params, tolerance=1e-4, h=1e-5):
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``loss_fn`` rebuilds the forward graph from the parameters' current data
    on every call and returns the scalar loss tensor.  Meant for 64-bit
    fragments under ~1e4 parameters; at 32-bit the differences drown in
    rounding noise.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    with tape() as t:
        loss = loss_fn()
        t.backward(loss)
    analytic = {p.name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for p in params}
    for p in params:
        p.zero_grad()

    report = GradCheckReport(tolerance=tolerance)
    for p in params:
        worst = 0.0
        flat = p.data.reshape(-1)
        an = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn().item()
            flat[i] = orig - h
            down = loss_fn().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            worst = max(worst, _rel_err(an[i], numeric))
        report.per_param[p.name] = worst
    return report


# ---------------------------------------------------------------------------
# tensor records: the body of both SFPK checkpoints and MCSF exchange messages


class RecordError(ValueError):
    """Tensor records that cannot be written or read.

    After a short read ``offset`` is where the read started and ``needed``
    the number of missing bytes; otherwise both are None.
    """

    def __init__(self, message, offset=None, needed=None):
        super().__init__(message)
        self.offset = offset
        self.needed = needed


_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_DIMS = tuple(struct.Struct(f"<{rank}I") for rank in range(256))


def encode_records(header, arrays):
    """``header`` followed by one tensor record per entry of ``arrays``.

    The records are the one tensor layout of this package; checkpoints and
    exchange messages differ only in the header before them.  One record per
    tensor, in sorted name order, little-endian throughout::

        name-len u16 | name UTF-8 | rank u8 | dims u32 each | float32 data

    Values are cast to float32.  A name longer than 65535 bytes or a
    non-finite value raises :class:`RecordError`.
    """
    parts = [header]
    for name in sorted(arrays):
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise RecordError(f"tensor name of {len(raw)} bytes exceeds the 65535-byte limit")
        arr = np.asarray(arrays[name], dtype="<f4")
        if not np.isfinite(arr).all():
            raise RecordError(f"tensor {name!r} contains non-finite values")
        parts += (_U16.pack(len(raw)), raw, _U8.pack(arr.ndim), _DIMS[arr.ndim].pack(*arr.shape), arr.tobytes())
    return b"".join(parts)


class RecordReader:
    """Cursor over a bytes-like buffer; a read past its end is a :class:`RecordError`."""

    __slots__ = ("data", "off")

    def __init__(self, data):
        self.data = data
        self.off = 0

    def advance(self, n):
        """Move past the next ``n`` bytes and return the offset they start at."""
        start = self.off
        if start + n > len(self.data):
            needed = start + n - len(self.data)
            raise RecordError(f"buffer ends at byte {start}, needed {needed} more", start, needed)
        self.off = start + n
        return start

    def take(self, n):
        start = self.advance(n)
        return self.data[start : self.off]

    def unpack(self, st):
        return st.unpack_from(self.data, self.advance(st.size))


def decode_records(reader, count):
    """Read ``count`` records (layout in :func:`encode_records`) that end the buffer.

    Returns a dict of float32 arrays.  A short buffer, a name that is not
    UTF-8 or not after the one before it, a shape no array can have, a
    non-finite value or bytes after the last record raise :class:`RecordError`.
    """
    out = {}
    previous = None
    for _ in range(count):
        (name_len,) = reader.unpack(_U16)
        try:
            name = str(reader.take(name_len), "utf-8")
        except UnicodeDecodeError:
            raise RecordError(f"tensor name ending at byte {reader.off} is not UTF-8") from None
        if previous is not None and name <= previous:
            # the encoder writes each name once, in sorted order
            raise RecordError(f"tensor name {name!r} repeated or out of order")
        previous = name
        (rank,) = reader.unpack(_U8)
        dims = reader.unpack(_DIMS[rank])
        n = math.prod(dims)
        flat = np.frombuffer(reader.data, "<f4", n, reader.advance(4 * n))
        if not np.isfinite(flat).all():
            raise RecordError(f"tensor {name!r} contains non-finite values")
        try:
            out[name] = flat.reshape(dims).copy()
        except ValueError:  # more dimensions than numpy allows, or an oversized empty shape
            raise RecordError(f"tensor {name!r} has shape {dims}, which no array can have") from None
    left = len(reader.data) - reader.off
    if left:
        raise RecordError(f"{left} trailing bytes after the last record")
    return out


# ---------------------------------------------------------------------------
# checkpoints: magic "SFPK" | version u8 | tensor count u32, then the records

_CKPT_HEADER = struct.Struct("<4sBI")
_CKPT_MAGIC = b"SFPK"
_CKPT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, named_arrays):
    """Write named arrays to ``path`` as an SFPK checkpoint (float32), atomically.

    A name longer than 65535 bytes or a non-finite value raises
    :class:`CheckpointError` before anything is written.
    """
    header = _CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, len(named_arrays))
    try:
        blob = encode_records(header, named_arrays)
    except RecordError as err:
        raise CheckpointError(str(err)) from None
    write_atomic(path, blob)


def load_checkpoint(path):
    """Read an SFPK checkpoint back into a dict of float32 arrays.

    Bytes that are not a whole, well-formed checkpoint raise
    :class:`CheckpointError`.
    """
    with open(path, "rb") as fh:
        reader = RecordReader(fh.read())
    try:
        magic, version, count = reader.unpack(_CKPT_HEADER)
        if magic != _CKPT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}")
        if version != _CKPT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        return decode_records(reader, count)
    except RecordError as err:
        raise CheckpointError(f"checkpoint: {err}") from None


def load_params(params, arrays):
    """Copy each same-named checkpoint array into its parameter's data, in place.

    A missing tensor raises :class:`CheckpointError` and a shape that differs
    from the parameter's raises :class:`ShapeError`, both naming the tensor.
    """
    for p in params:
        if p.name not in arrays:
            raise CheckpointError(f"checkpoint has no tensor {p.name!r}")
        src = np.asarray(arrays[p.name])
        if src.shape != p.data.shape:
            raise ShapeError(f"{p.name}: cannot load {src.shape} into {p.data.shape}")
        p.data[...] = src
        p.version += 1
