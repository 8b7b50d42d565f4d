"""Instrumentation for the benchmark: spans, boundary timers, layer metrics.

Nothing here edits the library.  Spans come from wrappers that the benchmark
installs around the library's public functions and the harness's phase
methods, and removes again when a measurement ends.  A wrapper replaces the
function in its defining module and in every ``sfrec`` module that imported
it by name, so calls through either route are recorded.

Two instruments exist:

* :class:`SpanRecorder` (traced runs) records one span per wrapped call --
  name, start, end and parent -- in memory, plus counters taken at the same
  boundaries (rows synced, candidates scored, bytes per message kind, tape
  nodes).  :func:`layer_metrics` turns them into the per-layer metrics.
* :class:`BoundaryTimer` (untraced runs) times only the harness boundaries
  the end-to-end rates need: each serving event, and the three lifecycle
  phases once per lifecycle.  It records no spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from sfrec import autodiff, cli, config, data, exchange, fast, harness, layers, metrics, slow

ROOTS = ("setup", "body")  # top-level span names the benchmark opens itself


def _sfrec_modules():
    return [m for name, m in list(sys.modules.items()) if name == "sfrec" or name.startswith("sfrec.")]


class Patcher:
    """Swaps library attributes for wrappers and puts the originals back."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, wrap):
        """Wrap ``module.name`` everywhere an ``sfrec`` module refers to it."""
        original = getattr(module, name)
        wrapped = wrap(original)
        for mod in _sfrec_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def method(self, cls, name, wrap):
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, wrap(original))

    def restore(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)


# ---------------------------------------------------------------------------
# spans


class SpanRecorder:
    """Spans held in flat arrays: name id, start, end, parent index (-1 = root)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self.scope = None
        self.counts = {scope: Counter() for scope in ROOTS}

    def intern(self, label):
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, scope):
        """A top-level span (``setup`` or ``body``) that scopes counters."""
        if self._stack:
            raise RuntimeError(f"root span {scope!r} opened inside another span")
        self.scope = scope
        i = self._open(self.intern(scope))
        try:
            yield
        finally:
            self._close(i)
            self.scope = None

    def count(self, key, n=1):
        if self.scope is not None:
            self.counts[self.scope][key] += n

    def wrapper(self, label, counter=None):
        """Decorator factory: record a span around each call of the wrapped function.

        ``counter(recorder, bound_args, result)`` runs after the span closes
        and adds boundary counts.
        """
        nid = self.intern(label)

        def wrap(fn):
            sig = inspect.signature(fn) if counter is not None else None

            def traced(*args, **kwargs):
                i = self._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(i)
                if counter is not None:
                    counter(self, sig.bind(*args, **kwargs).arguments, result)
                return result

            traced.__wrapped__ = fn
            traced.__name__ = getattr(fn, "__name__", label)
            return traced

        return wrap

    def __len__(self):
        return len(self.start)

    def arrays(self):
        """Copies of the span columns as numpy arrays."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path):
        """Write every span (and the name table) as a compressed npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-scope totals over a recorder: calls, inclusive and self time."""

    def __init__(self, rec):
        self.rec = rec
        cols = rec.arrays()
        n = len(rec)
        self.name_id = cols["name_id"]
        self.parent = cols["parent"]
        self.dur = cols["end"] - cols["start"]
        covered = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - covered
        # parents are opened before their children, so one forward pass finds roots
        root = np.arange(n, dtype=np.int64)
        for i in np.nonzero(has_parent)[0]:
            root[i] = root[self.parent[i]]
        self.scope_id = self.name_id[root]

    def _mask(self, label, scope):
        nid = self.rec._ids.get(label, -1)
        return (self.name_id == nid) & (self.scope_id == self.rec._ids.get(scope, -2))

    def calls(self, label, scope="body"):
        return int(np.count_nonzero(self._mask(label, scope)))

    def total(self, label, scope="body"):
        return float(self.dur[self._mask(label, scope)].sum())

    def self_total(self, label, scope="body"):
        return float(self.self_time[self._mask(label, scope)].sum())

    def total_under(self, label, parent_label, scope="body"):
        """Time in ``label`` spans whose direct parent is a ``parent_label`` span."""
        mask = self._mask(label, scope)
        pid = self.rec._ids.get(parent_label, -1)
        idx = np.nonzero(mask)[0]
        keep = [i for i in idx if self.parent[i] >= 0 and self.name_id[self.parent[i]] == pid]
        return float(self.dur[keep].sum())

    def outermost(self, labels, scope="body"):
        """Time in spans from ``labels`` that have no ancestor from ``labels``."""
        ids = {self.rec._ids[l] for l in labels if l in self.rec._ids}
        total = 0.0
        for i in np.nonzero(np.isin(self.name_id, list(ids)) & (self.scope_id == self.rec._ids.get(scope, -2)))[0]:
            p = self.parent[i]
            while p >= 0 and self.name_id[p] not in ids:
                p = self.parent[p]
            if p < 0:
                total += self.dur[i]
        return float(total)

    def summary(self):
        """{scope: {name: [calls, total_s, self_s]}} for every recorded name."""
        out = {}
        for scope in ROOTS:
            sid = self.rec._ids.get(scope, -2)
            rows = {}
            for nid, label in enumerate(self.rec.names):
                mask = (self.name_id == nid) & (self.scope_id == sid)
                if mask.any():
                    rows[label] = [int(mask.sum()), float(self.dur[mask].sum()), float(self.self_time[mask].sum())]
            out[scope] = rows
        return out


# -- what gets wrapped ---------------------------------------------------------


def _count_arg(key, arg):
    def counter(rec, bound, result):
        rec.count(key, len(bound[arg]))

    return counter


def _count_tape_nodes(rec, bound, result):
    rec.count("tape_nodes", len(bound["self"].nodes))


def _count_wire_bytes(rec, bound, result):
    rec.count(f"bytes.{exchange.MessageKind(bound['msg'].kind).name.lower()}", len(result))


# (owner, attribute, span name, counter); an owner that is a class means a method
TRACED = [
    (autodiff.Tape, "backward", "autodiff.backward", _count_tape_nodes),
    (autodiff.Adam, "step", "autodiff.adam_step", None),
    (autodiff, "save_checkpoint", "autodiff.checkpoint_save", None),
    (autodiff, "load_checkpoint", "autodiff.checkpoint_load", None),
    (layers.EmbeddingTable, "lookup", "layers.embedding_lookup", None),
    (layers.GruCell, "step", "layers.gru_step", None),
    (layers.GruCell, "encode_np", "layers.gru_encode_np", None),
    (layers, "gru_encode", "layers.gru_encode", None),
    (layers, "din_attention", "layers.din_attention", None),
    (layers, "target_aware_fusion", "layers.target_aware_fusion", None),
    (layers, "predict_head", "layers.predict_head", None),
    (slow.SlowModel, "loss", "slow.loss", None),
    (slow.SlowModel, "score_candidates", "slow.score", _count_arg("slow.candidates", "candidate_ids")),
    (slow.SlowModel, "export_interest", "slow.export_interest", None),
    (fast.FastModel, "loss", "fast.loss", None),
    (fast.FastModel, "score_candidates", "fast.score", _count_arg("fast.candidates", "candidate_ids")),
    (fast.FastModel, "sync_rows", "fast.sync_rows", _count_arg("fast.synced_rows", "ids")),
    (fast.ExposureMemory, "export", "fast.memory_export", None),
    (exchange, "encode_message", "exchange.encode", _count_wire_bytes),
    (exchange, "decode_message", "exchange.decode", None),
    (exchange, "write_message_log", "exchange.log_write", None),
    (exchange, "read_message_log", "exchange.log_read", None),
    (exchange.UploadScheduler, "tick", "exchange.scheduler_tick", None),
    (data, "make_cluster_dataset", "data.make_cluster_dataset", None),
    (data, "parse_tsv", "data.parse_tsv", None),
    (data, "phase_split", "data.phase_split", None),
    (data.NegativeSampler, "draw", "data.negative_draw", None),
    (data, "simulate_exposures", "data.simulate_exposures", None),
    (metrics, "rank_candidates", "metrics.rank", None),
    (config, "load_config", "config.load", None),
    (cli, "cmd_train", "cli.train", None),
    (cli, "cmd_eval", "cli.eval", None),
    (harness, "prepare_data", "harness.prepare_data", None),
    (harness, "run_lifecycle", "harness.run_lifecycle", None),
    (harness, "evaluate_from_state", "harness.evaluate_from_state", None),
    (harness, "write_results", "harness.write_results", None),
    (harness._SeedRun, "__init__", "harness.seed_setup", None),
    (harness._SeedRun, "train_slow", "harness.train_slow", None),
    (harness._SeedRun, "_download", "harness.download", None),
    (harness._SeedRun, "_serve_event", "harness.serve_event", None),
    (harness._SeedRun, "_upload", "harness.upload", None),
    (harness._SeedRun, "_refresh_slow", "harness.refresh", None),
    (harness._SeedRun, "serve_and_train_fast", "harness.serve_and_train_fast", None),
    (harness._SeedRun, "evaluate", "harness.evaluate", None),
]

DATA_PREP = ("data.make_cluster_dataset", "data.parse_tsv", "data.phase_split", "harness.prepare_data")


def install_spans(rec, patcher):
    for owner, attr, label, counter in TRACED:
        wrap = rec.wrapper(label, counter)
        if isinstance(owner, type):
            patcher.method(owner, attr, wrap)
        else:
            patcher.function(owner, attr, wrap)


# -- per-layer metrics -----------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def _lifecycle_phases(t):
    serve = t.total("harness.serve_event")
    return {
        "slow_train": t.total("harness.train_slow"),
        "initial_download": t.total_under("harness.download", "harness.run_lifecycle"),
        "serve": serve,
        "fast_train": t.total("harness.serve_and_train_fast") - serve,
        "evaluate": t.total("harness.evaluate"),
    }


# name -> (unit, value from (SpanTable, body counters)); setup-scoped metrics say so
LAYER_METRICS = {
    "harness.slow_train_s": ("s", lambda t, c: _lifecycle_phases(t)["slow_train"]),
    "harness.initial_download_s": ("s", lambda t, c: _lifecycle_phases(t)["initial_download"]),
    "harness.serve_s": ("s", lambda t, c: _lifecycle_phases(t)["serve"]),
    "harness.upload_wait_s": ("s", lambda t, c: t.total("harness.upload")),
    "harness.refresh.calls": ("count", lambda t, c: t.calls("harness.refresh")),
    "harness.refresh_s": ("s", lambda t, c: t.total("harness.refresh")),
    "harness.fast_train_s": ("s", lambda t, c: _lifecycle_phases(t)["fast_train"]),
    "harness.evaluate_s": ("s", lambda t, c: t.total("harness.evaluate")),
    "autodiff.backward.calls": ("count", lambda t, c: t.calls("autodiff.backward")),
    "autodiff.backward_s": ("s", lambda t, c: t.total("autodiff.backward")),
    "autodiff.tape_nodes_per_example": (
        "nodes/example", lambda t, c: _ratio(c["tape_nodes"], t.calls("autodiff.backward"))
    ),
    "autodiff.adam_step.calls": ("count", lambda t, c: t.calls("autodiff.adam_step")),
    "autodiff.adam_step_s": ("s", lambda t, c: t.total("autodiff.adam_step")),
    "autodiff.checkpoint_save_s": ("s", lambda t, c: t.total("autodiff.checkpoint_save", "setup")),
    "autodiff.checkpoint_load_s": ("s", lambda t, c: t.total("autodiff.checkpoint_load")),
    "layers.gru_step.calls": ("count", lambda t, c: t.calls("layers.gru_step")),
    "layers.gru_step_s": ("s", lambda t, c: t.total("layers.gru_step")),
    "slow.loss.calls": ("count", lambda t, c: t.calls("slow.loss")),
    "slow.loss_s": ("s", lambda t, c: t.total("slow.loss")),
    "slow.score.calls": ("count", lambda t, c: t.calls("slow.score")),
    "slow.score_s": ("s", lambda t, c: t.total("slow.score")),
    "slow.candidates_scored": ("count", lambda t, c: c["slow.candidates"]),
    "slow.export_interest_s": ("s", lambda t, c: t.total("slow.export_interest")),
    "fast.loss.calls": ("count", lambda t, c: t.calls("fast.loss")),
    "fast.loss_s": ("s", lambda t, c: t.total("fast.loss")),
    "fast.score.calls": ("count", lambda t, c: t.calls("fast.score")),
    "fast.score_s": ("s", lambda t, c: t.total("fast.score")),
    "fast.candidates_scored": ("count", lambda t, c: c["fast.candidates"]),
    "fast.synced_rows": ("count", lambda t, c: c["fast.synced_rows"]),
    "fast.sync_rows_s": ("s", lambda t, c: t.total("fast.sync_rows")),
    "exchange.encode.calls": ("count", lambda t, c: t.calls("exchange.encode")),
    "exchange.encode_s": ("s", lambda t, c: t.total("exchange.encode")),
    "exchange.decode_s": ("s", lambda t, c: t.total("exchange.decode")),
    "exchange.bytes.interest_down": ("bytes", lambda t, c: c["bytes.interest_down"]),
    "exchange.bytes.negative_memory_up": ("bytes", lambda t, c: c["bytes.negative_memory_up"]),
    "exchange.bytes.gru_n_sync": ("bytes", lambda t, c: c["bytes.gru_n_sync"]),
    "exchange.upload_ratio": (
        "ratio", lambda t, c: _ratio(t.calls("harness.upload"), t.calls("harness.serve_event"))
    ),
    "exchange.log_write_s": ("s", lambda t, c: t.total("exchange.log_write", "setup")),
    "exchange.log_read_s": ("s", lambda t, c: t.total("exchange.log_read")),
    "data.prepare_s": ("s", lambda t, c: t.outermost(DATA_PREP, "setup")),
    "data.negative_draw.calls": ("count", lambda t, c: t.calls("data.negative_draw")),
    "data.negative_draw_s": ("s", lambda t, c: t.total("data.negative_draw")),
    "data.simulate_exposures_s": ("s", lambda t, c: t.total("data.simulate_exposures")),
    "metrics.rank.calls": ("count", lambda t, c: t.calls("metrics.rank")),
    "metrics.rank_self_s": ("s", lambda t, c: t.self_total("metrics.rank")),
    "cli.eval_s": ("s", lambda t, c: t.total("cli.eval")),
}

# added by the runner from its own two timings of the body
TRACE_METRICS = {
    "harness.phase_coverage": "ratio",
    "trace.lifecycle_s": "s",
    "trace.untraced_lifecycle_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


REPLAY_PHASES = (
    "autodiff.checkpoint_load",
    "exchange.log_read",
    "harness.prepare_data",
    "harness.evaluate_from_state",
)


def phase_total(t):
    """Body time inside the harness phase spans of either workload kind.

    A lifecycle body splits into slow training, initial downloads, serving
    plus fast training, and evaluation.  A replay body (one ``sfrec eval``)
    splits into checkpoint load, log read, data preparation and re-ranking.
    """
    if t.calls("cli.eval"):
        return t.outermost(REPLAY_PHASES)
    return sum(_lifecycle_phases(t).values())


def layer_metrics(rec):
    t = SpanTable(rec)
    values = {name: float(fn(t, rec.counts["body"])) for name, (unit, fn) in LAYER_METRICS.items()}
    return t, values


# ---------------------------------------------------------------------------
# untraced boundary timing


class BoundaryTimer:
    """Serving-event latencies plus one total per timed harness method."""

    # lifecycle phases, plus the parts of them that are not training: slow
    # validation scoring inside ``train_slow``, and serving inside
    # ``serve_and_train_fast`` apart from the refreshes that uploads trigger
    PHASES = ("train_slow", "_slow_validation_loss", "serve_and_train_fast", "_refresh_slow", "evaluate")

    def __init__(self):
        self.serve_ms = []
        self.phase_s = Counter()

    def reset(self):
        self.serve_ms.clear()
        self.phase_s.clear()

    def install(self, patcher):
        patcher.method(harness._SeedRun, "_serve_event", self._timed_event)
        for phase in self.PHASES:
            patcher.method(harness._SeedRun, phase, lambda fn, phase=phase: self._timed_phase(fn, phase))

    def _timed_event(self, fn):
        samples = self.serve_ms

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append((time.perf_counter() - started) * 1e3)

        return timed

    def _timed_phase(self, fn, phase):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.phase_s[phase] += time.perf_counter() - started

        return timed

    def training_s(self):
        """Time spent in forward+backward work: slow epochs without their
        validation scoring, fast epochs without serving, and the refreshes."""
        p = self.phase_s
        slow = p["train_slow"] - p["_slow_validation_loss"]
        fast = p["serve_and_train_fast"] - sum(self.serve_ms) / 1e3
        return slow + fast + p["_refresh_slow"]
