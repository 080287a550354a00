"""Golden demo output: each script in ``demos/`` must print what it printed
when its golden file in ``tests/golden/demos/`` was captured, byte for byte.

Only a change whose stated goal is an output change may regenerate a file:

    PYTHONPATH=src python demos/demo_flows.py > tests/golden/demos/demo_flows.out
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def test_every_demo_has_a_golden_file():
    assert [demo.stem for demo in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.out"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{demo.stem}.out").read_text()
