"""The test configuration itself, run the way tier 1 runs it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

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
