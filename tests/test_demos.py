"""The four demos print exactly the recorded output.

Each demo runs in a fresh interpreter with ``src`` on the path, and its
stdout is compared byte for byte with ``tests/data/demo_0N.txt``.  Demos 03
and 04 exercise the convex hypercube grid and the Yatracos class.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_every_demo_has_a_golden():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "data" / f"demo_{demo.name[:2]}.txt"
    assert proc.stdout == golden.read_text()
