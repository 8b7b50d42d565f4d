"""The README describes every module of the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_has_a_row_in_the_readme_module_table():
    modules = {f"sfrec.{p.stem}" for p in (ROOT / "src" / "sfrec").glob("*.py") if p.stem != "__init__"}
    rows = set(re.findall(r"^\| `(sfrec\.\w+)` \|", (ROOT / "README.md").read_text(encoding="utf-8"), re.MULTILINE))
    assert modules - rows == set(), "modules without a README row"
    assert rows - modules == set(), "README rows naming no module"
