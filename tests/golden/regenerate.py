"""Regenerate the golden lifecycle files that ``tests/test_golden.py`` checks.

Run from the repository root::

    PYTHONPATH=src python3 tests/golden/regenerate.py

Each config below trains through ``sfrec train`` with ``--state-dir``.  Its
results CSV is written here as ``<name>.csv``; ``manifest.json`` holds every
config's argv, the SHA-256 of each state file it wrote, and the numpy and
BLAS versions that produced them.  Regenerate only for a change that moves
bits on purpose (a new float summation order, say), and name the files that
moved; the comparison is byte for byte and never a tolerance.  For each
config the script prints every results row that moved (old -> new) and every
state file whose hash moved, ready to quote.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent

BASE = [
    "--data-format", "cluster",
    "--dim", "8",
    "--lr", "5e-3",
    "--batch-size", "64",
    "--slow-epochs", "2",
    "--fast-epochs", "2",
    "--patience", "0",
    "--seeds", "2",
    "--n-eval-neg", "20",
    "--max-users", "40",
    "--max-positions-per-user", "8",
    "--record-timing", "false",
]
SHORT = ["--max-history-len", "3", "--threshold", "2"]

CONFIGS = {
    "independent": ["--variant", "independent"],
    "f2s": ["--variant", "f2s"],
    "s2f_full": ["--variant", "s2f_full"],
    "independent_short": ["--variant", "independent", *SHORT],
    "f2s_short": ["--variant", "f2s", *SHORT],
    "s2f_full_short": ["--variant", "s2f_full", *SHORT],
    "s2f_full_float64": ["--variant", "s2f_full", "--precision", "float64"],
}
SEEDS = (0, 1)


def versions():
    """The numpy version and the BLAS library numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def sha256_files(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(directory).iterdir())}


def train(argv, workdir):
    """Run ``sfrec train`` for one config in ``workdir``; returns (results CSV path, state dir)."""
    from sfrec.cli import main

    results, state = Path(workdir) / "results.csv", Path(workdir) / "state"
    code = main(["train", "--results", str(results), "--state-dir", str(state), *BASE, *argv])
    if code != 0:
        raise RuntimeError(f"sfrec train {' '.join(argv)} exited {code}")
    return results, state


def csv_rows(path):
    """A results file's rows by everything but their value and wall time; none for a missing file."""
    if not path.exists():
        return {}
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))[1:]
    return {(*row[:5], row[6]): ",".join(row) for row in rows}


def moved(name, old_csv, new_csv, old_state, new_state):
    """Lines naming each results row and state file of config ``name`` that moved."""
    lines = [
        f"  {old_csv.get(key, '(none)')} -> {new_csv.get(key, '(none)')}"
        for key in sorted(old_csv.keys() | new_csv.keys())
        if old_csv.get(key) != new_csv.get(key)
    ]
    states = sorted(f for f in old_state.keys() | new_state.keys() if old_state.get(f) != new_state.get(f))
    head = f"{name}: {len(lines)} of {len(new_csv)} rows moved"
    return [head + (f"; state moved: {', '.join(states)}" if states else "; no state file moved"), *lines]


def regenerate():
    manifest_path = GOLDEN / "manifest.json"
    old = json.loads(manifest_path.read_text(encoding="utf-8")) if manifest_path.exists() else {}
    manifest = {**versions(), "base": BASE, "seeds": list(SEEDS), "configs": {}}
    for name, argv in CONFIGS.items():
        golden_csv = GOLDEN / f"{name}.csv"
        old_csv = csv_rows(golden_csv)
        with tempfile.TemporaryDirectory() as tmp:
            results, state = train(argv, tmp)
            golden_csv.write_bytes(results.read_bytes())
            manifest["configs"][name] = {"argv": argv, "state": sha256_files(state)}
        old_state = old.get("configs", {}).get(name, {}).get("state", {})
        print("\n".join(moved(name, old_csv, csv_rows(golden_csv), old_state, manifest["configs"][name]["state"])))
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote manifest.json ({manifest['numpy']}, {manifest['blas']})")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    regenerate()
