"""One benchmark run: set up, time the body, gate the outputs, derive metrics.

An untraced run (``trace=False``) reports the end-to-end metrics; see
:func:`measure_untraced` for its schedule.  ``setup_s`` is the median
set-up; the other times and rates pool all of the run's windows.  Only the
:class:`spans.BoundaryTimer` boundaries are instrumented.

A traced run (``trace=True``) reports the per-layer metrics.  It sets up
once under spans, runs the body once untraced and once traced, and reports
the difference as the tracing overhead.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import spans as tr
import workloads as wl
from sfrec import harness

END_TO_END = {
    "setup_s": "s",
    "lifecycle_s": "s",
    "train_examples_per_s": "1/s",
    "serve_event_p50_ms": "ms",
    "serve_event_p99_ms": "ms",
    "rankings_per_s": "1/s",
    "wire_bytes_per_upload": "bytes",
    "peak_rss_mb": "MB",
    "slow_ndcg10": "ratio",
    "fast_ndcg10": "ratio",
}


class Tally:
    """Operations attempted and failed, with the first few gate violations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations = []

    def add(self, ops, problems):
        self.attempted += ops
        self.failed += min(len(problems), ops)
        self.violations += problems[: max(0, 20 - len(self.violations))]


class Lifecycle:
    """Lifecycle workloads: ``run_lifecycle`` on a corpus built from the seed.

    The ``k``-th lifecycle of a run trains model seed ``seed * LIFECYCLES + k``
    on that corpus, so the quality guards are a median over model seeds.
    """

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.ndcg = {"slow": [], "fast": []}  # per lifecycle

    def setup(self):
        self.model_seed = self.seed * LIFECYCLES + len(self.ndcg["slow"])
        self.cfg, self.prepared = wl.lifecycle_setup(self.workload, self.seed, self.model_seed)

    def body(self):
        self.outcome = None  # so peak RSS never holds two lifecycles
        self.outcome = wl.lifecycle_body(self.cfg, self.prepared)
        for component, values in self.ndcg.items():
            values.append(wl.ndcg10(self.outcome.records, component))

    def ops(self):
        split, users = self.prepared
        messages = self.outcome.messages[self.model_seed]
        return {
            "examples": wl.training_examples(self.cfg, split, users, messages),
            "events": wl.serving_events(split, users),
            "rankings": wl.rankings(split, users),
        }

    def check_body(self):
        return wl.check_lifecycle(self.outcome)

    def reevaluate(self):
        """Re-rank the test phase from the lifecycle's final state; returns gate violations."""
        arrays, exposures = self.outcome.states[self.model_seed]
        messages = self.outcome.messages[self.model_seed]
        records = harness.evaluate_from_state(self.cfg, self.model_seed, self.prepared, arrays, messages, exposures)
        return wl.check_replay(records, self.outcome.records)

    def ndcg10(self, component):
        """Median over the run's lifecycles."""
        return _median(self.ndcg[component])

    def uploads(self):
        messages = self.outcome.messages[self.model_seed]
        return self.outcome.diagnostics[self.model_seed]["uploads"], wl.upload_bytes(messages)


class ReplayRun:
    """eval-replay: set-up ``k`` trains state ``k`` with ``sfrec train``; bodies replay the states in turn."""

    def __init__(self, workload, seed, workdir):
        self.replay = wl.Replay(workload, seed, workdir)
        self.diagnostics = []  # per state
        self.messages = []  # per state
        self.replayed = {}  # state -> records of its latest replay

    def setup(self):
        self.next_state = len(self.diagnostics)
        self.diagnostics.append(self.replay.setup(self.next_state))

    def body(self):
        """Replay the newest state first, then every state in turn."""
        self.last = self.next_state
        self.next_state = (self.next_state + 1) % len(self.diagnostics)
        self.replay.body(self.last)

    @functools.cached_property
    def split(self):
        """(split, users) of the corpus, which every set-up writes alike."""
        return harness.prepare_data(self.replay.config())

    def setup_ops(self):
        """(ops, training examples, gate violations) of the latest state-writing lifecycle."""
        k = len(self.diagnostics) - 1
        cfg = self.replay.config()
        split, users = self.split
        messages, problems = wl.check_message_log(self.replay.message_log(k), self.diagnostics[k])
        self.messages.append(messages)
        examples = wl.training_examples(cfg, split, users, messages)
        ops = examples + wl.serving_events(split, users) + wl.rankings(split, users)
        problems += wl.check_records(self.replay.trained(k))
        return ops, examples, problems

    def rankings(self):
        return wl.rankings(*self.split)

    def check_body(self):
        replayed = self.replay.replayed(self.last)
        self.replayed[self.last] = replayed
        return wl.check_replay(replayed, self.replay.trained(self.last)) + wl.check_records(replayed)

    def ndcg10(self, component):
        """Median over the replayed states."""
        return _median([wl.ndcg10(records, component) for records in self.replayed.values()])

    def uploads(self):
        uploads = sum(d["uploads"] for d in self.diagnostics)
        return uploads, sum(wl.upload_bytes(m) for m in self.messages)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    return float(statistics.median(values))


def _pooled_rate(windows):
    """Total count over total seconds, so every window weighs by its length."""
    return sum(n for n, _ in windows) / sum(t for _, t in windows)


LIFECYCLES = 3  # rounds per lifecycle run; fixed, so every run does the same work


def _runner(workload, seed, workdir):
    if workload.kind == "lifecycle":
        return Lifecycle(workload, seed)
    return ReplayRun(workload, seed, workdir)


def measure_untraced(workload, seed, seconds, workdir):
    """Set-ups and timed windows are spread over the whole run.

    A small shared host switches between speeds up to twice apart as other
    tenants contend for its cores.  Averaged over 15 s its speed still moves
    by about 20% (quartile spread over the median), over 60 s by about 5%.  So
    every time metric pools windows taken across the whole run: the rates and
    ``lifecycle_s`` pool all of the run's windows, and the serving
    percentiles pool every serving event.  ``setup_s`` is the median set-up.

    Lifecycle: ``LIFECYCLES`` rounds of (set-ups, lifecycle, re-evaluation
    of that lifecycle's final state), the ``setups`` split evenly over the
    rounds.  The work is fixed, so the mix of windows never depends on
    machine speed.  Replay: each set-up is followed by replays until that
    set-up's share of ``seconds`` is used, so the set-ups, which hold this
    workload's serving and training windows, spread evenly over the run.
    """
    lifecycle = workload.kind == "lifecycle"
    timer = tr.BoundaryTimer()
    patcher = tr.Patcher()
    timer.install(patcher)
    tally = Tally()
    runner = _runner(workload, seed, workdir)
    setup_s, body_s, serve_ms = [], [], []
    trained, ranked = [], []  # (count, seconds) per window; rates pool them

    def setup():
        timer.reset()
        started = time.perf_counter()
        runner.setup()
        setup_s.append(time.perf_counter() - started)
        if not lifecycle:
            # the state-writing lifecycle is where this workload serves and trains
            ops, examples, problems = runner.setup_ops()
            tally.add(ops, problems)
            serve_ms.extend(timer.serve_ms)
            trained.append((examples, timer.training_s()))

    def body():
        timer.reset()
        started = time.perf_counter()
        runner.body()
        body_s.append(time.perf_counter() - started)
        if lifecycle:
            ops = runner.ops()
            serve_ms.extend(timer.serve_ms)
            trained.append((ops["examples"], timer.training_s()))
            tally.add(sum(ops.values()), runner.check_body())
            n_rankings = ops["rankings"]
        else:
            n_rankings = runner.rankings()
            tally.add(1 + n_rankings, runner.check_body())
        ranked.append((n_rankings, timer.phase_s["evaluate"]))

    def reevaluate():
        n_rankings = runner.ops()["rankings"]
        timer.reset()
        tally.add(1 + n_rankings, runner.reevaluate())
        ranked.append((n_rankings, timer.phase_s["evaluate"]))

    try:
        if lifecycle:
            for _ in range(LIFECYCLES):
                for _ in range(workload.setups // LIFECYCLES):
                    setup()
                body()
                reevaluate()
        else:
            for k in range(1, workload.setups + 1):
                setup()
                body()
                while sum(body_s) + _median(body_s) <= seconds * k / workload.setups:
                    body()
    finally:
        patcher.restore()
    uploads, wire_bytes = runner.uploads()
    metrics = {
        "setup_s": _median(setup_s),
        "lifecycle_s": sum(body_s) / len(body_s),
        "train_examples_per_s": _pooled_rate(trained),
        "serve_event_p50_ms": float(np.percentile(serve_ms, 50)),
        "serve_event_p99_ms": float(np.percentile(serve_ms, 99)),
        "rankings_per_s": _pooled_rate(ranked),
        "wire_bytes_per_upload": wire_bytes / uploads if uploads else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
        "slow_ndcg10": runner.ndcg10("slow"),
        "fast_ndcg10": runner.ndcg10("fast"),
    }
    samples = {
        "setups": len(setup_s),
        "bodies": len(body_s),
        "evaluation_windows": len(ranked),
        "serve_events": len(serve_ms),
        "uploads": uploads,
    }
    detail = {"setup_s": setup_s, "lifecycle_s": body_s, "rankings": ranked, "training": trained}
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}, tally, samples, detail


def measure_traced(workload, seed, workdir, spans_path=None):
    rec = tr.SpanRecorder()
    patcher = tr.Patcher()
    tally = Tally()
    runner = _runner(workload, seed, workdir)

    def gate_body():
        if workload.kind == "lifecycle":
            tally.add(sum(runner.ops().values()), runner.check_body())
        else:
            tally.add(1 + runner.rankings(), runner.check_body())

    try:
        tr.install_spans(rec, patcher)
        with rec.root("setup"):
            runner.setup()
        patcher.restore()
        if workload.kind == "replay":
            ops, _, problems = runner.setup_ops()
            tally.add(ops, problems)
        started = time.perf_counter()
        runner.body()
        untraced = time.perf_counter() - started
        gate_body()
        tr.install_spans(rec, patcher)
        with rec.root("body"):
            started = time.perf_counter()
            runner.body()
            traced = time.perf_counter() - started
    finally:
        patcher.restore()
    gate_body()
    table, values = tr.layer_metrics(rec)
    values.update(
        {
            "harness.phase_coverage": tr.phase_total(table) / traced,
            "trace.lifecycle_s": traced,
            "trace.untraced_lifecycle_s": untraced,
            "trace.overhead_s": traced - untraced,
            "trace.spans": float(len(rec)),
        }
    )
    units = {name: unit for name, (unit, _) in tr.LAYER_METRICS.items()} | tr.TRACE_METRICS
    if spans_path is not None:
        rec.save(spans_path)
    samples = {"spans": len(rec)}
    return {name: (values[name], units[name]) for name in units}, tally, samples, {"span_summary": table.summary()}


# ---------------------------------------------------------------------------


def _git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _blas_threads():
    """Threads in the BLAS pool numpy uses, read from OpenBLAS itself when it can be found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root, seed):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(root),
        "seed": seed,
        "machine": platform.machine(),
    }


def run(workload, seed, seconds, trace, root, out_dir):
    """Measure one workload; returns (final result line, full record)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    workdir = out_dir / f"work-{tag}-{os.getpid()}"
    try:
        if trace:
            metrics, tally, samples, detail = measure_traced(workload, seed, workdir, out_dir / f"spans-{tag}.npz")
        else:
            metrics, tally, samples, detail = measure_untraced(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": bool(trace),
        "seconds": seconds,
        "environment": environment(Path(root), seed),
        "samples": samples,
        "detail": detail,
        "violations": tally.violations,
        "result": result,
    }
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result, record
