"""The benchmark instruments the library by name: keep those names alive.

``bench/spans.py`` wraps library functions and harness phase methods by
attribute name, for per-layer spans (``--trace 1``) and for the untraced
phase timing behind ``train_examples_per_s``.  A rename in the library would
break the benchmark without failing anything here, so this checks that
every name it wraps still resolves.  The module is loaded read-only; nothing
is patched.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from sfrec import harness

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans_contract", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    missing = []
    for owner, attr, label, _ in spans.TRACED:
        if inspect.isclass(owner):
            found = callable(owner.__dict__.get(attr))  # the benchmark patches the class's own method
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{owner.__name__}.{attr} ({label})")
    assert not missing, f"benchmark wraps names the library no longer has: {missing}"


def test_every_timed_phase_is_a_harness_method(spans):
    for phase in (*spans.BoundaryTimer.PHASES, "_serve_event"):
        assert callable(harness._SeedRun.__dict__.get(phase)), phase
