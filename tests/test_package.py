"""The package's public surface: its export list, and the functions that the
benchmark's layer tracer wraps by name."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subzurek

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def tracer_targets() -> tuple:
    """TARGETS of bench/tracing.py, loaded by path without running the bench."""
    spec = importlib.util.spec_from_file_location("subzurek_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module,attr", [target[:2] for target in tracer_targets()],
                         ids=lambda part: part)
def test_tracer_target_resolves(module, attr):
    # the tracer looks each function up on subzurek.<module> and fails the
    # benchmark run if one is gone
    assert callable(getattr(importlib.import_module(f"subzurek.{module}"), attr))


def test_every_exported_name_resolves():
    assert len(set(subzurek.__all__)) == len(subzurek.__all__)
    missing = [name for name in subzurek.__all__ if not hasattr(subzurek, name)]
    assert missing == []


STAR_IMPORT = """
names = {}
exec("from subzurek import *", names)
print(" ".join(sorted(name for name in names if name != "__builtins__")))
"""


def test_star_import_in_a_fresh_interpreter():
    src = os.path.dirname(os.path.dirname(subzurek.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", STAR_IMPORT], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == sorted(subzurek.__all__)
