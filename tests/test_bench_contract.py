"""The benchmark's tracer wraps package functions by module attribute; a
refactor that renames or hides one of them would leave its layer untimed."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).parent.parent / "bench" / "spans.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


@pytest.mark.parametrize("mod_name, attr, span", [w[:3] for w in load_wraps()])
def test_wrapped_attribute_resolves(mod_name, attr, span):
    fn = getattr(importlib.import_module(mod_name), attr, None)
    assert callable(fn), f"{mod_name}.{attr} is gone"
    # the span is named after the layer that defines the function
    layer, name = span.split(".")
    assert (fn.__module__, fn.__name__) == (f"gridmtd.{layer}", name)


def test_bench_selftest_passes():
    # the harness's own checks, among them that case14 records work in every
    # layer the tracer wraps; bench/ finds the package through its checkout
    selftest = SPANS.parent / "selftest.py"
    proc = subprocess.run(
        [sys.executable, str(selftest)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
