"""Toy-size self-check of the benchmark.  No timing thresholds.

Checks the result schema, that every metric named in ``BENCHMARK.json`` is
reported with its unit, that the seed code passes every correctness gate, and
that the gates fire on corrupted inputs.  Runs in well under a minute:

    python3 -m pytest -q bench/selfcheck.py
    python3 bench/selfcheck.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import measure  # noqa: E402
import workloads as wl  # noqa: E402
import numpy as np  # noqa: E402
from sfrec import autodiff, exchange  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# 40 users over 2 clusters of 20 items: 20 clicks each, nothing filtered.
TOY_CORPUS = dict(n_users=40, n_items=40, n_clusters=2)
TOY_CONFIG = dict(dim=8, mlp_layers=2, n_eval_neg=10, max_positions_per_user=4)


def toy(name):
    w = wl.WORKLOADS[name]
    return dataclasses.replace(w, corpus=TOY_CORPUS, config={**w.config, **TOY_CONFIG})


def _run(name, trace, tmp):
    return measure.run(toy(name), seed=3, seconds=0.0, trace=trace, root=ROOT, out_dir=tmp)


def _check_schema(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, name
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
    json.dumps(result)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == wl.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == measure.END_TO_END
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_untraced_and_traced():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    with tempfile.TemporaryDirectory() as tmp:
        for name in wl.WORKLOADS:
            result, record = _run(name, False, tmp)
            _check_schema(result, e2e)
            assert record["environment"]["seed"] == 3
            assert 0.0 < result["metrics"]["fast_ndcg10"]["value"] <= 1.0
            traced, record = _run(name, True, tmp)
            _check_schema(traced, layers)
            values = {k: m["value"] for k, m in traced["metrics"].items()}
            assert 0.5 < values["harness.phase_coverage"] <= 1.0
            assert values["metrics.rank.calls"] > 0
            if wl.WORKLOADS[name].kind == "lifecycle":
                assert values["autodiff.backward.calls"] > 0 and values["harness.refresh.calls"] > 0
                assert values["exchange.bytes.negative_memory_up"] > 0
            else:
                assert values["cli.eval_s"] > 0 and values["autodiff.checkpoint_load_s"] > 0
                assert values["autodiff.backward.calls"] == 0
            assert any(Path(tmp).glob(f"spans-{name}-*.npz"))


def test_example_count_matches_backward_calls():
    import spans as tr

    runner = measure.Lifecycle(toy("upload-storm"), 3)
    runner.setup()
    rec, patcher = tr.SpanRecorder(), tr.Patcher()
    tr.install_spans(rec, patcher)
    try:
        with rec.root("body"):
            runner.body()
    finally:
        patcher.restore()
    table = tr.SpanTable(rec)
    assert runner.ops()["examples"] == table.calls("autodiff.backward")
    assert runner.ops()["events"] == table.calls("harness.serve_event") == table.calls("harness.upload")


def test_lifecycle_gates_fire_on_corruption():
    runner = measure.Lifecycle(toy("train-cluster"), 3)
    runner.setup()
    runner.body()
    outcome, s = runner.outcome, runner.model_seed
    assert wl.check_lifecycle(outcome) == []

    dropped = copy.deepcopy(outcome)
    dropped.messages[s] = [m for m in dropped.messages[s] if m.kind != exchange.MessageKind.GRU_N_SYNC][:-1]
    assert len(wl.check_lifecycle(dropped)) >= 2

    miscounted = copy.deepcopy(outcome)
    miscounted.diagnostics[s]["downloads"] += 1
    assert wl.check_lifecycle(miscounted)

    poisoned = copy.deepcopy(outcome)
    poisoned.messages[s][0].payload = {k: v * math.nan for k, v in poisoned.messages[s][0].payload.items()}
    assert wl.check_lifecycle(poisoned)

    out_of_range = copy.deepcopy(outcome)
    out_of_range.records[0] = dataclasses.replace(out_of_range.records[0], value=1.5)
    assert wl.check_lifecycle(out_of_range)


def test_message_gate_fires_on_bytes_that_do_not_reencode():
    msg = exchange.ExchangeMessage(exchange.MessageKind.NEGATIVE_MEMORY_UP, 1, 1, {"r2_hat": [[0.5, 0.25]]})
    blob = exchange.encode_message(msg)
    counts = {"uploads": 1, "refreshes": 1, "downloads": 0}
    assert wl.check_messages([blob], counts) == []
    assert wl.check_messages([blob[:-1]], counts)  # truncated payload
    nan_blob = blob[:-4] + b"\x00\x00\xc0\x7f"  # a NaN the encoder refuses to write
    assert wl.check_messages([nan_blob], counts)


def test_replay_gate_fires_on_corrupted_state():
    with tempfile.TemporaryDirectory() as tmp:
        runner = measure.ReplayRun(toy("eval-replay"), 3, Path(tmp) / "work")
        runner.setup()
        runner.body()
        assert runner.check_body() == []
        ops, examples, problems = runner.setup_ops()
        assert problems == [] and examples > 0 and ops > examples

        ckpt = runner.replay.state / f"seed{runner.replay.model_seed(0)}.ckpt"
        arrays = autodiff.load_checkpoint(ckpt)
        arrays["slow/emb"] = np.random.default_rng(0).normal(size=arrays["slow/emb"].shape)
        autodiff.save_checkpoint(ckpt, arrays)
        runner.body()
        assert runner.check_body()

        log = runner.replay.message_log(0)
        log.write_bytes(log.read_bytes()[:-1])  # a torn last record
        assert wl.check_message_log(log, runner.diagnostics[0])[1]


def test_refuses_to_run_without_the_library():
    """In a directory with only the benchmark, it exits non-zero and prints no result."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "train-cluster", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": ""},
        )
        assert done.returncode != 0
        assert '"correct"' not in done.stdout


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as err:  # report every check, then fail once
                failures += 1
                print(f"FAIL {name}: {type(err).__name__}: {err}")
    sys.exit(1 if failures else 0)
