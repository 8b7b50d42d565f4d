"""Golden lifecycle: seven configs rerun byte for byte against checked-in files.

``tests/golden/regenerate.py`` wrote each config's results CSV and the
SHA-256 of every state file (checkpoints, message logs, exposures) it saved,
with the numpy and BLAS versions that produced them.  A change that moves
bits on purpose regenerates them with that one script; this test never
compares with a tolerance.
"""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from sfrec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def _rows_of_seed(csv_bytes, seed):
    header, *rows = csv_bytes.decode("utf-8").splitlines()
    return header, [r for r in rows if r.split(",")[6] == str(seed)]


def test_golden_versions_match_this_environment():
    here = regenerate.versions()
    for key in ("numpy", "blas"):
        if MANIFEST[key] != here[key]:
            pytest.fail(
                f"golden files were generated with {key} {MANIFEST[key]!r}, this environment has {here[key]!r}; "
                "rerun tests/golden/regenerate.py on a commit known to be right"
            )


def test_ci_pins_the_numpy_the_golden_files_were_generated_with():
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    pins = re.findall(r"numpy==([^\s\"']+)", workflow)
    assert pins, "tier1.yml installs no pinned numpy"
    assert set(pins) == {MANIFEST["numpy"]}, (
        f"tier1.yml pins numpy {sorted(set(pins))} but the golden files were generated with {MANIFEST['numpy']}; "
        "a pin bump reruns tests/golden/regenerate.py under the new numpy"
    )


def test_golden_configs_are_the_regenerated_ones():
    assert MANIFEST["base"] == regenerate.BASE
    assert MANIFEST["seeds"] == list(regenerate.SEEDS)
    assert {name: c["argv"] for name, c in MANIFEST["configs"].items()} == regenerate.CONFIGS


@pytest.mark.parametrize("name", sorted(MANIFEST["configs"]))
def test_golden_lifecycle_and_replay(name, tmp_path):
    test_golden_versions_match_this_environment()
    config = MANIFEST["configs"][name]
    results, state = regenerate.train(config["argv"], tmp_path)
    want = (GOLDEN / f"{name}.csv").read_bytes()
    assert results.read_bytes() == want, f"{name}: results CSV differs from tests/golden/{name}.csv"
    assert regenerate.sha256_files(state) == config["state"], f"{name}: state files differ"

    for seed in MANIFEST["seeds"]:
        replayed = tmp_path / f"eval{seed}.csv"
        argv = ["eval", "--state-dir", str(state), "--seed", str(seed), "--results", str(replayed)]
        assert main([*argv, *regenerate.BASE, *config["argv"]]) == 0
        got = replayed.read_bytes()
        assert _rows_of_seed(got, seed) == _rows_of_seed(want, seed), f"{name}: eval of seed {seed} differs"
        assert len(got.splitlines()) == len(_rows_of_seed(want, seed)[1]) + 1, "eval wrote rows of another seed"
