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


def test_every_counted_argument_names_a_parameter_of_the_function_it_wraps(spans):
    # a traced run binds the call's arguments by name: a renamed parameter
    # would fail there and nowhere else
    count_arg = spans._count_arg("key", "arg").__code__  # the code every _count_arg counter shares
    counted, unnamed = [], []
    for owner, attr, label, counter in spans.TRACED:
        if counter is None or counter.__code__ is not count_arg:
            continue
        arg = inspect.getclosurevars(counter).nonlocals["arg"]
        function = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        counted.append(label)
        if arg not in inspect.signature(function).parameters:
            unnamed.append(f"{label}: {arg!r}")
    assert counted, "no _count_arg counter found"
    assert not unnamed, f"benchmark counters name parameters the library no longer has: {unnamed}"
