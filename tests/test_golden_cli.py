"""Golden CLI corpus: every recorded command must reproduce its stdout,
stderr and exit code byte for byte.

The corpus lives in ``tests/golden/cli_corpus.json``; the seed files it
reads sit next to it.  Only a change whose stated goal is an output change
may regenerate it, from the case list below:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from pathlib import Path
from unittest import mock

from viscosym.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "cli_corpus.json"

# "{golden}" in an argument stands for the GOLDEN directory
SEEDS_JSON = "--seeds={golden}/seeds.json"
SEEDS_CSV = "--seeds={golden}/seeds.csv"


def _formats(*argv: str, formats=("json", "markdown", "csv")) -> list[list[str]]:
    return [[f"--format={fmt}", *argv] for fmt in formats]


CASES: list[list[str]] = [
    # table, adjoint-table, determining: every format, options on both sides
    *_formats("table"),
    ["table", "--format=markdown"],
    *_formats("adjoint-table"),
    *_formats("determining"),
    # adjoint-matrix
    *[["adjoint-matrix", f"--t={t}"] for t in range(1, 6)],
    *_formats("adjoint-matrix", "--t=4", formats=("markdown", "csv")),
    ["--format=markdown", "adjoint-matrix", "--t=2"],
    # verify: basis combinations and JSON generators
    *_formats("verify", "--generator=X4"),
    *[["verify", f"--generator={g}"] for g in
      ("X1", "X2", "X3", "X5", "X1 + 2*X3 - X5", "-X4/2", "3*X2 - X1",
       "(((X1 + X2)))", "X4 + X5/3")],
    *_formats("verify", '--generator={"xi1": "t"}'),
    *[["verify", f"--generator={g}"] for g in
      ('{"xi1": "y", "xi2": "-x"}', '{"phi1": "u", "phi2": "f"}',
       '{"xi3": "1", "phi1": "x^2"}', '{"xi1": "sin(x)"}', '{}',
       '{"xi2": "u", "phi2": "t*f"}')],
    ["verify", '--generator={"xi1": "t"}', "--seed=7"],
    ["verify", '--generator={"xi1": "t"}', "--param-a=2", "--param-b=0.5"],
    ["--format=markdown", "--param-b=-1.25", "verify", '--generator={"xi3": "x"}'],
    ["verify", '--generator={"phi1": "x^2"}', "--tol=1e-3"],
    ["verify", "--generator=X4", "--tol=1e-12"],
    # optimal: every class and subcase, plus rejected vectors
    *_formats("optimal", "--coeffs=0,0,2,1,3"),
    *_formats("optimal", "--coeffs=3,4,0,0,0"),
    *[["optimal", f"--coeffs={c}"] for c in
      ("0,0,0,0,2", "0,0,7,0,2", "1,0,2,0,3", "-1,2,3,4,5", "0,-3,1,0,1",
       "2,0,0,0,0", "0,0,-1,0,0", "1.5,0.25,0,-2,1", "0,1e-3,5,0,-7")],
    ["--format=markdown", "optimal", "--coeffs=0,0,0,0,-4"],
    ["optimal", "--coeffs=0,0,0,0,0"],
    ["optimal", "--coeffs=1,2,3"],
    ["optimal", "--coeffs=a,b,c,d,e"],
    # reduce: published rows (audit mismatch, exit 1) and catalog charts
    *_formats("reduce", "--generator=X1"),
    *[["reduce", f"--generator={g}"] for g in ("X2", "X3", "X1 + X3", "X2 + X3")],
    *_formats("reduce", "--generator=X4"),
    *[["reduce", f"--generator={g}"] for g in
      ("X4 + X3", "X1 + 2*X2", "X1 - X2 + 3*X3", "-2*X2", '{"xi1": "1", "xi3": "2"}')],
    ["reduce", "--generator=X3", "--param-b=2"],
    ["reduce", "--generator=X1 + X3", "--param-a=2", "--param-b=0.5", "--seed=3"],
    ["--format=markdown", "reduce", "--generator=2*X2 - X3", "--param-a=-1"],
    # verify-reduction
    *_formats("verify-reduction", "--generator=X2"),
    *[["verify-reduction", f"--generator={g}"] for g in ("X1 + X3", "X3 - 2*X1", "X4")],
    ["verify-reduction", "--generator=X2 - 2*X3", "--tol=1e-3", "--seed=5"],
    # flow: JSON and CSV seed files, projection, rotations and translations
    *_formats("flow", "--generator=X4", SEEDS_JSON, "--eps=0:6.283185307179586:5"),
    *_formats("flow", "--generator=X1 + X3", SEEDS_CSV, "--eps=-1:2:4", "--project-xy",
              formats=("json", "csv")),
    ["flow", "--generator=X4 + X1", SEEDS_JSON, "--eps=0:1:3"],
    ["flow", "--generator=2*X4 + X3 - X2", SEEDS_CSV, "--eps=-0.5:0.5:3"],
    ["--format=csv", "flow", "--generator=-X4/2 + X2", SEEDS_JSON, "--eps=0:3:4", "--project-xy"],
    ["flow", "--generator=X5", SEEDS_JSON, "--eps=0:1:2"],
    ["flow", "--generator=X2", SEEDS_CSV, "--eps=0.25:0.75:3", "--project-xy"],
    ["flow", '--generator={"xi1": "3", "xi2": "-1"}', SEEDS_JSON, "--eps=0:1:2"],
    # documented exit-2 inputs
    ["flow", "--generator=X4", "--seeds=no-such-seeds.json", "--eps=0:1:2"],
    ["flow", "--generator=X4", "--seeds={golden}/seeds_empty.json", "--eps=0:1:2"],
    ["flow", "--generator=X4", "--seeds={golden}/seeds_short.csv", "--eps=0:1:2"],
    ["flow", "--generator=X4", SEEDS_JSON, "--eps=0:1"],
    ["flow", "--generator=X4", SEEDS_JSON, "--eps=0:1:1"],
    ["flow", "--generator=X4", SEEDS_JSON, "--eps=1:0:3"],
    ["flow", "--generator=X4", SEEDS_JSON, "--eps=0:1:x"],
    ["flow", '--generator={"xi1": "x^2"}', SEEDS_JSON, "--eps=0:1:2"],
    # a dilation: its flow is x*exp(eps)
    ["flow", '--generator={"xi1": "x"}', SEEDS_JSON, "--eps=0:1:2"],
    *[["verify", f"--generator={g}"] for g in
      ("X1 +* X2", "2*(X1 + X3", "X4 ^ ^ 2", "X1 + X7", "q*X2", "X1 + * X2",
       "X1*X2", "X1^2", "X1 + 1", '{"xi1": "z*x"}', '{"xi1": "sin(x, y)"}',
       '{"xi1": "u_q"}', '{"xi1": "x(1)"}', '{"xi1": "x^(1/0)"}', '{"xi1": "1 $ 2"}',
       '{"xi1": ', '{"xi1": "u_x"}', '{"xi1": "(x"}')],
    *[["reduce", f"--generator={g}"] for g in
      ("X5", "X1 + X5", '{"xi1": "x"}', '{"xi1": "y", "xi2": "x"}', "0*X1")],
    ["verify-reduction", "--generator=X5"],
    ["adjoint-matrix", "--t=9"],
    ["adjoint-matrix", "--t=x"],
    ["--format=xml", "table"],
    ["no-such-command"],
    ["verify"],
    [],
]


def replay(argv: list[str]) -> dict:
    """Run one CLI invocation in-process and capture what it prints."""
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in argv]
    # the CLI reads its defaults from the environment, and argparse wraps
    # usage text to the terminal width
    env = {k: v for k, v in os.environ.items() if not k.startswith("VISCOSYM_")}
    env["COLUMNS"] = "80"
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", json.loads(CORPUS.read_text()),
                             ids=lambda case: " ".join(case["argv"]) or "<no arguments>")


def test_golden_output(case):
    want = {key: case[key] for key in ("exit", "stdout", "stderr")}
    assert replay(case["argv"]) == want


def test_dilation_run_samples_its_exponential():
    # the one run a change of output recaptured: x -> x0*e^eps, y and t fixed
    argv = ["flow", '--generator={"xi1": "x"}', SEEDS_JSON, "--eps=0:1:2"]
    case = next(case for case in json.loads(CORPUS.read_text()) if case["argv"] == argv)
    seeds = json.loads((GOLDEN / "seeds.json").read_text())
    payload = json.loads(case["stdout"])
    assert case["exit"] == 0 and payload["map"] == {"x": "x*exp(eps)", "y": "y", "t": "t"}
    assert len(payload["rows"]) == 2 * len(seeds)
    for seed_id, eps, x, y, t in payload["rows"]:
        x0, y0, t0 = seeds[seed_id]
        assert x == x0 * math.exp(eps) and (y, t) == (y0, t0)


if __name__ == "__main__":
    corpus = [{"argv": argv, **replay(argv)} for argv in CASES]
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(corpus)} cases to {CORPUS}")
