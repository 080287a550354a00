"""numpy is imported on first use, not at start-up.

Only the chart rank check and ``verify_reduction`` use numpy, so a fresh
process that imports the package, or runs a subcommand that builds no
chart, must leave it out of ``sys.modules``.  Each case runs in its own
interpreter, because the test process has numpy loaded already; the
subcommand cases also replay their golden run, so the output stays the
same when numpy does load.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
GOLDEN = TESTS / "golden"
CORPUS = GOLDEN / "cli_corpus.json"

# argv as JSON in, {"numpy": loaded?, "exit": code, "stdout": text} out
_CHILD = """
import contextlib, io, json, sys
from viscosym.cli import run
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = run(json.loads(sys.argv[1]))
print(json.dumps({"numpy": "numpy" in sys.modules, "exit": code, "stdout": out.getvalue()}))
"""


def _fresh(*args: str) -> str:
    """stdout of ``python *args`` in a fresh interpreter that imports from src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VISCOSYM_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["COLUMNS"] = "80"
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


def _first_golden(command: str) -> dict:
    """The first golden run of a subcommand."""
    return next(case for case in json.loads(CORPUS.read_text()) if command in case["argv"])


@pytest.mark.parametrize("module", ["viscosym", "viscosym.cli"])
def test_import_leaves_numpy_out(module):
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    assert _fresh("-c", code) == "False\n"


@pytest.mark.parametrize("command", ["table", "adjoint-table", "adjoint-matrix", "optimal",
                                     "verify", "determining", "flow", "reduce"])
def test_subcommand_loads_numpy_only_for_a_chart(command):
    case = _first_golden(command)
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in case["argv"]]
    got = json.loads(_fresh("-c", _CHILD, json.dumps(argv)))
    assert got["numpy"] is (command == "reduce")
    assert (got["exit"], got["stdout"]) == (case["exit"], case["stdout"])
