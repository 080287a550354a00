"""The package runs without numpy, dataclasses and inspect.

numpy is a test and benchmark dependency only, and dataclasses (which
imports inspect) would cost a cold CLI process most of its import time, so
importing the package and running any subcommand must never import them.
Each case runs in its own interpreter with ``sys.modules[name] = None`` set
for all three before viscosym is imported, so that any import of them
raises ImportError; the test process itself cannot check this, since it has
them loaded already.  The subcommand cases replay the first golden run of
every subcommand, whose exit code and stdout must be unchanged.
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

_BLOCKED = ("numpy", "dataclasses", "inspect")
_BLOCK = f"import sys; sys.modules.update(dict.fromkeys({_BLOCKED!r}))\n"

# argv as JSON in, {"exit": code, "stdout": text} out
_CHILD = _BLOCK + """
import contextlib, io, json
from viscosym.cli import run
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = run(json.loads(sys.argv[1]))
print(json.dumps({"exit": code, "stdout": out.getvalue()}))
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
    assert _fresh("-c", _BLOCK + f"import {module}; print('imported')") == "imported\n"


@pytest.mark.parametrize("command", ["table", "adjoint-table", "adjoint-matrix", "optimal",
                                     "verify", "determining", "flow", "reduce",
                                     "verify-reduction"])
def test_subcommand_runs_without_numpy(command):
    case = _first_golden(command)
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in case["argv"]]
    got = json.loads(_fresh("-c", _CHILD, json.dumps(argv)))
    assert (got["exit"], got["stdout"]) == (case["exit"], case["stdout"])
