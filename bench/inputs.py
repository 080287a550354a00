"""Seeded input generation for the three workloads.

Each workload runs a *deck* of operations.  A deck has a fixed composition
of operation kinds, so every seed stresses the same layers in the same
proportions; the seed picks the coefficients, formats and order.  A deck is
a list of plain dicts: the program only ever sees the generated inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from reference import PUBLISHED_REDUCTION_LABELS

SMALL = (-3, -2, -1, 1, 2, 3)


def combo_text(coeffs) -> str:
    """c1*X1 + ... as the CLI and parse_basis_combination accept it."""
    parts = []
    for k, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        sign = "-" if c < 0 else "+"
        parts.append((sign, f"{mag}X{k}"))
    text = " ".join(f"{sign} {term}" for sign, term in parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _linear(rng: random.Random, nonzero: int) -> tuple[int, int, int, int, int]:
    """c1 X1 + c2 X2 + c3 X3 with ``nonzero`` nonzero coefficients, never one
    of the published table rows (those run as their own operation kind)."""
    while True:
        slots = rng.sample(range(3), nonzero)
        coeffs = [0, 0, 0, 0, 0]
        for slot in slots:
            coeffs[slot] = rng.choice(SMALL)
        if combo_text(coeffs) not in PUBLISHED_REDUCTION_LABELS:
            return tuple(coeffs)


def _rotation(rng: random.Random, with_time: bool) -> tuple[int, int, int, int, int]:
    return (0, 0, rng.choice(SMALL) if with_time else 0, rng.choice(SMALL), 0)


def _optimal_vector(rng: random.Random, cls: str) -> tuple[int, int, int, int, int]:
    """A coefficient vector in the given branch of the a4/a2/a1 split."""
    def r(zero_ok=True):
        return rng.choice((0,) + SMALL if zero_ok else SMALL)
    if cls == "3":
        return (r(), r(), r(), r(False), r())
    if cls == "2":
        return (r(), r(False), r(), 0, r())
    if cls == "1":
        return (r(False), 0, r(), 0, r())
    if cls == "4":
        return (0, 0, r(False), 0, r())
    return (0, 0, 0, 0, r(False))   # 4b


def _flow_case(rng: random.Random, rotation: bool) -> dict:
    """A rotation (c4 != 0) or a pure translation (c4 = 0, c1 != 0)."""
    if rotation:
        coeffs = (rng.choice((0,) + SMALL), rng.choice((0,) + SMALL),
                  rng.choice((0,) + SMALL), rng.choice(SMALL), 0)
    else:
        coeffs = (rng.choice(SMALL), rng.choice((0,) + SMALL),
                  rng.choice((0,) + SMALL), 0, 0)
    seeds = [[round(rng.uniform(-2, 2), 3) for _ in range(3)]
             for _ in range(rng.randint(2, 4))]
    return {"coeffs": coeffs, "seeds": seeds,
            "eps": (round(rng.uniform(-1, 0), 2), round(rng.uniform(1, 6.3), 2),
                    rng.randint(40, 120))}


# ---------------------------------------------------------------------------
# cli-oneshot: every subcommand, one fresh process per operation
# ---------------------------------------------------------------------------

PARSE_ERRORS = ("X1 +* X2", "2*(X1 + X3", "X4 ^ ^ 2")
UNKNOWN_IDENTIFIERS = ("X1 + X7", '{"xi1": "z*x"}', "q*X2")
UNSUPPORTED_REDUCTIONS = ("X5", "X1 + X5", '{"xi1": "x"}')


def cli_deck(rng: random.Random, out_dir: Path, tag: str) -> list[dict]:
    """19 operations: 17 with a documented answer and the two crashers of
    ROADMAP item 5, whose documented answer (exit 2, no traceback) they do
    not give yet.

    Options are passed as --name=value, since argparse would read a value
    such as -1,0,2,0,1 as an option."""
    def fmt(*choices):
        return rng.choice(choices)

    t = rng.randint(1, 5)
    ops: list[dict] = [
        {"kind": "table", "argv": ["table"], "fmt": fmt("json", "markdown")},
        {"kind": "adjoint-table", "argv": ["adjoint-table"], "fmt": fmt("json", "markdown")},
        {"kind": "determining", "argv": ["determining"], "fmt": fmt("json", "markdown")},
        {"kind": "adjoint-matrix", "argv": ["adjoint-matrix", f"--t={t}"], "fmt": "json", "t": t},
    ]
    verify_coeffs = tuple(rng.choice((0,) + SMALL) for _ in range(4)) + (rng.choice(SMALL),)
    ops.append({"kind": "verify", "argv": ["verify", "--generator=" + combo_text(verify_coeffs)],
                "fmt": fmt("json", "markdown")})
    c4 = rng.choice(SMALL)
    spec = json.dumps({"xi1": f"{c4}*y", "xi2": f"{-c4}*x", "xi3": str(rng.choice(SMALL))})
    ops.append({"kind": "verify", "argv": ["verify", "--generator=" + spec],
                "fmt": fmt("json", "markdown")})
    for cls in rng.sample(("3", "2", "1", "4", "4b"), 2):
        v = _optimal_vector(rng, cls)
        ops.append({"kind": "optimal", "argv": ["optimal", "--coeffs=" + ",".join(map(str, v))],
                    "fmt": fmt("json", "markdown"), "coeffs": v})
    for coeffs in (_linear(rng, 3), _rotation(rng, True)):
        ops.append({"kind": "reduce", "argv": ["reduce", "--generator=" + combo_text(coeffs)],
                    "fmt": fmt("json", "markdown"), "coeffs": coeffs, "row": None})
    row = rng.randrange(len(PUBLISHED_REDUCTION_LABELS))
    label = PUBLISHED_REDUCTION_LABELS[row]
    coeffs = tuple(int(f"X{k}" in label.split(" + ")) for k in range(1, 6))
    ops.append({"kind": "reduce", "argv": ["reduce", "--generator=" + label],
                "fmt": fmt("json", "markdown"), "coeffs": coeffs, "row": row + 1})
    coeffs = _linear(rng, rng.randint(1, 2))
    ops.append({"kind": "verify-reduction",
                "argv": ["verify-reduction", "--generator=" + combo_text(coeffs)],
                "fmt": fmt("json", "markdown")})
    for k in range(2):
        case = _flow_case(rng, rotation=k == 0)
        ext = rng.choice(("json", "csv"))
        path = out_dir / f"seeds-{tag}-{k}.{ext}"
        if ext == "json":
            path.write_text(json.dumps(case["seeds"]))
        else:
            path.write_text("# x, y, t\n" + "\n".join(", ".join(map(str, s)) for s in case["seeds"]) + "\n")
        lo, hi, n = case["eps"]
        project = rng.random() < 0.5
        argv = ["flow", "--generator=" + combo_text(case["coeffs"]), f"--seeds={path}",
                f"--eps={lo}:{hi}:{n}"] + (["--project-xy"] if project else [])
        ops.append({"kind": "flow", "argv": argv, "fmt": fmt("json", "csv"),
                    "project": project, **case})
    ops.append({"kind": "usage-error", "fmt": "json",
                "argv": ["verify", "--generator=" + rng.choice(PARSE_ERRORS)]})
    ops.append({"kind": "usage-error", "fmt": "json",
                "argv": ["verify", "--generator=" + rng.choice(UNKNOWN_IDENTIFIERS)]})
    ops.append({"kind": "usage-error", "fmt": "json",
                "argv": ["reduce", "--generator=" + rng.choice(UNSUPPORTED_REDUCTIONS)]})
    # ROADMAP item 5: a 2-number seed row, and a non-string JSON field
    short = out_dir / f"seeds-{tag}-short.json"
    short.write_text(json.dumps([[round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3)]]))
    ops.append({"kind": "crasher", "fmt": "json",
                "argv": ["flow", "--generator=X4", f"--seeds={short}", "--eps=0:1:5"]})
    ops.append({"kind": "crasher", "fmt": "json",
                "argv": ["verify", "--generator=" + json.dumps({"xi1": rng.choice(SMALL)})]})
    for op in ops:
        op["argv"] = [f"--format={op['fmt']}", f"--seed={rng.randrange(1000)}"] + op["argv"]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# derive: a long-lived process that builds expression trees
# ---------------------------------------------------------------------------

def _derive_ops(rng: random.Random) -> list[dict]:
    """Eight generators through the whole pipeline: two linear charts each
    with one, two and three nonzero coefficients, a pure rotation and a
    rotation with time translation; plus the determining system and both
    audits.  With 11 operations the median is one operation's latency,
    inside the family of linear charts."""
    coeffs = [_linear(rng, k) for k in (1, 1, 2, 2, 3, 3)]
    coeffs += [_rotation(rng, False), _rotation(rng, True)]
    ops = [{"kind": "pipeline", "generator": combo_text(c), "coeffs": c,
            "seed": rng.randrange(1000)} for c in coeffs]
    return ops + [{"kind": "determining"}, {"kind": "adjoint-audit"},
                  {"kind": "reduction-audit"}]


# ---------------------------------------------------------------------------
# classify-flow: a long-lived process that evaluates finished trees
# ---------------------------------------------------------------------------

def _classify_ops(rng: random.Random) -> list[dict]:
    """Twelve vectors: four in class 3 (a4 != 0), four in class 2, two in
    class 1, one in class 4 and one in 4b."""
    ops = []
    for cls in ("3", "3", "3", "3", "2", "2", "2", "2", "1", "1", "4", "4b"):
        v = _optimal_vector(rng, cls)
        scale = rng.choice((-2.5, -1.0, 0.5, 3.0))
        seeds = [[round(rng.uniform(-2, 2), 3) for _ in range(3)] for _ in range(4)]
        ops.append({"kind": "classify", "v": v, "scale": scale, "seeds": seeds,
                    "eps": (0.0, round(rng.uniform(1, 6.3), 2), 100)})
    return ops


def deck(workload: str, seed: int, out_dir: Path) -> list[dict]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli-oneshot":
        return cli_deck(rng, out_dir, str(seed))
    ops = _derive_ops(rng) if workload == "derive" else _classify_ops(rng)
    rng.shuffle(ops)
    return ops
