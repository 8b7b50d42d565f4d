"""The quick demos run to completion (demo 04, a full lifecycle, is left out
for time; demo 05 only prints the split it would use without ratings.dat)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["01_autodiff_basics", "02_model_components", "03_exchange_protocol", "05_movielens"]
)
def test_demo_exits_cleanly(demo, tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in ("SFREC_ML1M", "SFREC_DATA_DIR")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["TMPDIR"] = str(tmp_path)  # the demos' checkpoint and message-log files land here
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
