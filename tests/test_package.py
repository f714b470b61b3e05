"""The package's public surface: its export list, the functions that the
benchmark's layer tracer wraps by name, and the README's library example."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subzurek

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


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


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """code run by a new interpreter that finds the package on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(subzurek.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_star_import_in_a_fresh_interpreter():
    out = run_fresh(STAR_IMPORT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == sorted(subzurek.__all__)


def readme_library_example() -> str:
    """The ```python block of README's "## Library" section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("\n## ", 1)[0].split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs():
    out = run_fresh(readme_library_example())
    assert out.returncode == 0, out.stderr
