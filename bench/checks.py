"""Output checks.  Each check takes an operation (from ``inputs``) and its
answer as plain data and returns None when the answer is right, or a message.

CLI answers are {"exit", "stdout", "stderr"}; in-process answers are the
plain fields the worker extracted from the library's result objects.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import reference as ref

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@lru_cache(maxsize=None)
def _validator(command: str):
    import jsonschema
    schema = json.loads((SCHEMA_DIR / f"{command}.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


def _markdown_rows(text: str) -> list[list[str]]:
    rows = [line for line in text.splitlines() if line.startswith("| ")]
    expect(len(rows) >= 2 and set(rows[1].replace("|", "").split()) == {"---"},
           "markdown output has no table")
    return [[cell.strip() for cell in row.strip("|").split(" | ")] for row in rows[2:]]


def _payload(op: dict, stdout: str) -> dict:
    """The field/value payload of a command, from JSON or from the markdown
    field|value table, validated against the command's schema."""
    command = op["argv"][2]
    if op["fmt"] == "markdown":
        payload = {key: json.loads(value) for key, value in _markdown_rows(stdout)}
    else:
        payload = json.loads(stdout)
    errors = sorted(_validator(command).iter_errors(payload), key=str)
    expect(not errors, f"schema {command}: {errors[0].message if errors else ''}")
    return payload


def _cli_table(op, out):
    if op["fmt"] == "markdown":
        rows = _markdown_rows(out)
        expect([row[0] for row in rows] == list(ref.LABELS), "row labels")
        cells = [row[1:] for row in rows]
    else:
        payload = _payload(op, out)
        expect(payload["labels"] == list(ref.LABELS), "labels")
        cells = payload["cells"]
    return ref.commutator_mismatch(cells)


def _cli_adjoint_table(op, out):
    want = ref.adjoint_mismatch_cells()
    if op["fmt"] == "markdown":
        rows = _markdown_rows(out)
        got = {(int(r[0]), int(r[1])) for r in rows if r[4] == "NO"}
        expect(len(rows) == 25, f"{len(rows)} cells")
    else:
        payload = _payload(op, out)
        got = {(c["t"], c["r"]) for c in payload["cells"] if not c["match"]}
        expect(payload["mismatch_count"] == len(want),
               f"mismatch_count {payload['mismatch_count']}, expected {len(want)}")
    expect(got == want, f"mismatching cells {sorted(got)}, expected {sorted(want)}")


def _cli_adjoint_matrix(op, out):
    payload = _payload(op, out)
    expect(payload["t"] == op["t"], "t")
    return ref.check_adjoint_matrix(op["t"], payload["entries"])


def _cli_verify(op, out):
    payload = _payload(op, out)
    expect(payload["ok"] is True and payload["symbolic_zero"] is True
           and payload["residual"] == "0", f"not verified as a symmetry: {payload}")


def _cli_determining(op, out):
    if op["fmt"] == "markdown":
        head = out.splitlines()[0]
        expect(head == f"monomials: {ref.DETERMINING_RAW}, unique: {ref.DETERMINING_UNIQUE}, "
                       f"published count: {ref.DETERMINING_PUBLISHED} (not asserted), "
                       "solution check: pass", f"header {head!r}")
        expect(len(_markdown_rows(out)) == ref.DETERMINING_RAW, "equation rows")
        return
    payload = _payload(op, out)
    expect((payload["monomial_count"], payload["unique_count"]) ==
           (ref.DETERMINING_RAW, ref.DETERMINING_UNIQUE),
           f"counts {payload['monomial_count']}/{payload['unique_count']}")
    expect(payload["solution_check"] is True, "solution check failed")
    expect(len(payload["equations"]) == ref.DETERMINING_RAW, "equation records")


def _cli_optimal(op, out):
    p = _payload(op, out)
    return ref.check_normalization(op["coeffs"], p["label"], p["c1"], p["c2"],
                                   [(w["t"], w["s"]) for w in p["word"]],
                                   p["scale"], p["representative"])


def _cli_reduce(op, out):
    p = _payload(op, out)
    expect(p["verify"]["max_discrepancy"] < 1e-7,
           f"reduction cross-check {p['verify']['max_discrepancy']:.3e}")
    expect(p["table4_row"] == op["row"], f"table row {p['table4_row']}, expected {op['row']}")
    if op["row"] is not None:
        # every published reduced equation differs from the chain rule
        expect(p["match"] is False and p["diff_terms"], "published row reported as matching")
    return ref.check_chart(op["coeffs"], p["xi"], p["eta"], seed=0)


def _cli_verify_reduction(op, out):
    p = _payload(op, out)
    expect(p["passed"] is True and p["max_discrepancy"] < 1e-7,
           f"reduction cross-check {p['max_discrepancy']:.3e}")


def _cli_flow(op, out):
    lo, hi, n = op["eps"]
    width = 4 if op["project"] else 5
    if op["fmt"] == "json":
        payload = _payload(op, out)
        expect(len(payload["columns"]) == width, "columns")
        rows = payload["rows"]
    else:
        lines = out.splitlines()
        expect(lines[0] == ("seed_id,eps,x,y" if op["project"] else "seed_id,eps,x,y,t"),
               f"csv header {lines[0]!r}")
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    expect(all(len(row) == width for row in rows), "row width")
    return ref.check_flow(op["coeffs"], op["seeds"], lo, hi, n, rows)


CLI_EXIT = {"table": 0, "adjoint-table": 1, "adjoint-matrix": 0, "verify": 0,
            "determining": 0, "optimal": 0, "verify-reduction": 0, "flow": 0,
            "usage-error": 2, "crasher": 2}

_CLI_VALUES = {"table": _cli_table, "adjoint-table": _cli_adjoint_table,
               "adjoint-matrix": _cli_adjoint_matrix, "verify": _cli_verify,
               "determining": _cli_determining, "optimal": _cli_optimal,
               "reduce": _cli_reduce, "verify-reduction": _cli_verify_reduction,
               "flow": _cli_flow}


def check_cli(op: dict, answer: dict) -> str | None:
    """Exit code as documented (0 success, 1 audit mismatch, 2 bad input),
    no traceback, and the values against the references."""
    try:
        if "Traceback" in answer["stderr"]:
            return "traceback: " + answer["stderr"].strip().splitlines()[-1]
        want = 1 if op["kind"] == "reduce" and op["row"] else CLI_EXIT.get(op["kind"], 0)
        expect(answer["exit"] == want, f"exit {answer['exit']}, expected {want}")
        if want == 2:
            expect(answer["stderr"].startswith("error: ") and not answer["stdout"],
                   "usage error not reported as 'error: ...' on stderr")
            return None
        return _CLI_VALUES[op["kind"]](op, answer["stdout"])
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# In-process answers
# ---------------------------------------------------------------------------

def _pipeline(op, a):
    expect(a["symmetry_ok"] and a["symbolic_zero"], "generator not verified as a symmetry")
    expect(a["passed"] and a["max_discrepancy"] < 1e-7,
           f"verify_reduction {a['max_discrepancy']:.3e} at 1e-7")
    expect(a["kind"] == ("linear" if op["coeffs"][3] == 0 else "rotation"), "chart kind")
    return ref.check_chart(op["coeffs"], a["xi"], a["eta"], seed=op["seed"])


def _determining(op, a):
    expect((a["raw"], a["unique"]) == (ref.DETERMINING_RAW, ref.DETERMINING_UNIQUE),
           f"counts {a['raw']}/{a['unique']}")


def _adjoint_audit(op, a):
    got = {tuple(cell) for cell in a["mismatches"]}
    expect(got == ref.adjoint_mismatch_cells(), f"mismatching cells {sorted(got)}")


def _reduction_audit(op, a):
    expect(a["rows"] == len(ref.PUBLISHED_REDUCTION_LABELS) and a["matches"] == 0,
           f"{a['matches']} of {a['rows']} published rows match")


def _classify(op, a):
    msg = ref.check_normalization(op["v"], a["label"], a["c1"], a["c2"], a["word"],
                                  a["scale"], a["representative"])
    if msg:
        return msg
    expect(a["equivalent"] is True, f"v and {op['scale']}*v reported inequivalent")
    lo, hi, n = op["eps"]
    return ref.check_flow(a["representative"], op["seeds"], lo, hi, n, a["samples"])


_INPROC = {"pipeline": _pipeline, "determining": _determining,
           "adjoint-audit": _adjoint_audit, "reduction-audit": _reduction_audit,
           "classify": _classify}


def check_inproc(op: dict, answer: dict) -> str | None:
    try:
        return _INPROC[op["kind"]](op, answer)
    except CheckFailed as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# Negative controls: a corrupted answer must be caught
# ---------------------------------------------------------------------------

def _corrupt(text: str, fmt: str, edit) -> str:
    """Apply ``edit`` to a JSON payload; drop the last table or csv row of
    other formats."""
    if fmt != "json":
        return "\n".join(text.splitlines()[:-1]) + "\n"
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


def _bump_first_sample(payload):
    payload["rows"][0][2] += 1e-6


_CLI_CORRUPTIONS = {
    "table": lambda p: p["cells"][0].__setitem__(3, "X2"),
    "adjoint-table": lambda p: p.update(mismatch_count=p["mismatch_count"] - 1),
    "adjoint-matrix": lambda p: p["entries"][0].__setitem__(0, "1 + s^3"),
    "verify": lambda p: p.update(symbolic_zero=False),
    "determining": lambda p: p.update(unique_count=p["unique_count"] + 1),
    "optimal": lambda p: p.update(c1=p["c1"] + 1e-6),
    "reduce": lambda p: p.update(eta=p["xi"]),
    "verify-reduction": lambda p: p.update(max_discrepancy=2e-7),
    "flow": _bump_first_sample,
}


def cli_controls(ops: list[dict], answers: list[dict]) -> list[str]:
    """For the first correct answer of each kind, a flipped exit code and a
    corrupted output must both fail the checks; returns the ones that did not."""
    missed = []
    seen = set()
    for op, answer in zip(ops, answers):
        if op["kind"] in seen or check_cli(op, answer) is not None:
            continue
        seen.add(op["kind"])
        if check_cli(op, dict(answer, exit=3)) is None:
            missed.append(f"{op['kind']}:exit")
        edit = _CLI_CORRUPTIONS.get(op["kind"])
        if edit:
            bad = dict(answer, stdout=_corrupt(answer["stdout"], op["fmt"], edit))
            if check_cli(op, bad) is None:
                missed.append(f"{op['kind']}:output")
    return missed


_INPROC_CORRUPTIONS = {
    "pipeline": lambda a: a.update(max_discrepancy=2e-7),
    "determining": lambda a: a.update(unique=a["unique"] - 1),
    "adjoint-audit": lambda a: a.update(mismatches=a["mismatches"][1:]),
    "reduction-audit": lambda a: a.update(matches=1),
    "classify": lambda a: a.update(samples=[row[:2] + [row[2] + 1e-7] + row[3:]
                                            for row in a["samples"]]),
}


def inproc_controls(ops: list[dict], answers: list[dict]) -> list[str]:
    missed = []
    seen = set()
    for op, answer in zip(ops, answers):
        if op["kind"] in seen or check_inproc(op, answer) is not None:
            continue
        seen.add(op["kind"])
        bad = json.loads(json.dumps(answer))
        _INPROC_CORRUPTIONS[op["kind"]](bad)
        if check_inproc(op, bad) is None:
            missed.append(op["kind"])
    return missed
