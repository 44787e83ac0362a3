"""The test configuration itself, run the way tier 1 runs it."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
"""


def test_a_failing_property_gets_a_failure_report(tmp_path):
    # hypothesis's failure report imports libcst and through it
    # mypy_extensions, whose DeprecationWarning the error:: filter turned
    # into an INTERNALERROR that ended the run before test_after
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    argv = ["-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q", "test_prop.py"]
    done = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


# the (major, minor) floor of requires-python, ">=3.10"
FLOOR = tuple(
    map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M).groups())
)


@pytest.mark.parametrize(
    "path",
    sorted(p for top in ("src", "tests", "demos", "benchmarks") for p in (ROOT / top).rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_every_file_parses_at_the_declared_python_floor(path):
    # only CI's 3.10 leg runs at the floor; ast at the floor's feature
    # version refuses syntax a later Python added, on any interpreter
    ast.parse(path.read_text(), str(path), feature_version=FLOOR)
