"""Command-line interface.

Every capability is exposed as a subcommand with machine-readable output
(JSON, or one markdown table; flow prints CSV instead) and stable exit
codes: 0 on success or a passing check, 1 when an audit finds mismatches
against the published tables (the expected outcome for the adjoint-table
and reduced-equation audits) or a verification fails, 2 on usage errors
(including expression parse errors, which carry a byte offset), 3 on an
internal error (an unexpected exception, reported as one line).

Identical inputs and seed produce byte-identical output; the random seed
and output format can also be set through the environment variables
VISCOSYM_SEED and VISCOSYM_FORMAT, which are checked like the flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import adjoint, flows, reduction, vector_fields as vf
from .expr import (ExprError, Num, ZERO, substitute, substitute_functions,
                   to_text)
from .spaces import a as A_SYM, b as B_SYM, base_space

__all__ = ["main", "run"]

USAGE_ERROR = 2
AUDIT_MISMATCH = 1
INTERNAL_ERROR = 3
PUBLISHED_DETERMINING_COUNT = 227
_GENERATOR_KEYS = ("xi1", "xi2", "xi3", "phi1", "phi2")


class RunConfig(NamedTuple):
    fmt: str = "json"
    seed: int = 42
    tol: float | None = None
    params: Mapping = MappingProxyType({})     # a, b -> their --param-* values


def _render(payload: dict, config: RunConfig, table: tuple | None = None,
            note: str = "") -> None:
    """The payload as JSON, or under --format markdown as one table: the
    (headers, rows) given, after an optional note line, else field | value."""
    if config.fmt != "markdown":
        text = json.dumps(payload, indent=2)
    else:
        headers, rows = table or (["field", "value"],
                                  [[k, json.dumps(v)] for k, v in payload.items()])
        text = "\n".join("| " + " | ".join(row) + " |"
                         for row in [headers, ["---"] * len(headers), *rows])
        if note:
            text = f"{note}\n\n{text}"
    sys.stdout.write(text + "\n")


def _finite(value: float | None, what: str) -> float | None:
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return value


def _coefficient(text: str) -> float:
    value = _finite(float(text), "--coeffs")
    if value == 0.0 and Decimal(text) != 0:
        raise ValueError(f"--coeffs entry {text.strip()!r} is not zero but underflows to 0.0")
    return value


def _param(text: str, flag: str) -> Num:
    """A --param-a/--param-b value as the shortest decimal that reads as the
    same double: the decimal written, up to the 15 digits a double holds."""
    value = _finite(float(text), flag)
    if value == 0.0 and Decimal(text) != 0:
        raise ValueError(f"{flag} {text.strip()!r} is not zero but underflows to 0.0")
    return Num(Fraction(repr(value)))


def _pde(config: RunConfig) -> vf.PDEInstance:
    """The equation with a and b bound to their --param-a/--param-b values."""
    return vf.PDEInstance(substitute(vf.viscoelastic_pde().residual, config.params))


def _parse_generator(spec: str, config: RunConfig) -> vf.Generator:
    spec = spec.strip()
    if spec.startswith("{"):
        fields = json.loads(spec)
        if not all(key in _GENERATOR_KEYS and isinstance(value, str)
                   for key, value in fields.items()):
            raise ValueError("a JSON generator maps some of the keys "
                             f"{', '.join(_GENERATOR_KEYS)} to expression strings")
        sp = base_space()
        return vf.Generator(*[substitute(sp.parse(fields.get(name, "0")), config.params)
                              for name in _GENERATOR_KEYS], label=None)
    return vf.parse_basis_combination(spec)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_table(args, config: RunConfig) -> int:
    constants = vf.commutator_table()
    labels = list(constants.labels)
    cells = [[constants.entry_text(i, j) for j in range(1, 6)] for i in range(1, 6)]
    _render({"labels": labels, "cells": cells}, config,
            (["[ , ]"] + labels, [[labels[i]] + cells[i] for i in range(5)]))
    return 0


def _cmd_adjoint_table(args, config: RunConfig) -> int:
    audit = adjoint.audit_adjoint_table()
    mismatches = [cell for cell in audit if not cell.match]
    payload = {
        "cells": [{"t": cell.t, "r": cell.r,
                   "expected_from_series": cell.expected_from_series,
                   "paper_table_2": cell.paper_table_2,
                   "match": cell.match} for cell in audit],
        "mismatch_count": len(mismatches),
    }
    rows = [[str(cell.t), str(cell.r), cell.expected_from_series,
             cell.paper_table_2, "yes" if cell.match else "NO"] for cell in audit]
    _render(payload, config, (["t", "r", "series", "published", "match"], rows))
    return AUDIT_MISMATCH if mismatches else 0


def _cmd_adjoint_matrix(args, config: RunConfig) -> int:
    matrix = adjoint.adjoint_matrix(args.t)
    entries = [[to_text(e) for e in row] for row in matrix.entries]
    _render({"t": args.t, "entries": entries}, config,
            ([f"M{args.t}"] + [f"c{j+1}" for j in range(5)],
             [[f"r{i+1}"] + entries[i] for i in range(5)]))
    return 0


def _cmd_verify(args, config: RunConfig) -> int:
    gen = _parse_generator(args.generator, config)
    tol = config.tol if config.tol is not None else 1e-9
    report = vf.verify_symmetry(gen, _pde(config), seed=config.seed, tol=tol)
    payload = {
        "generator": args.generator,
        "ok": report.ok,
        "symbolic_zero": report.symbolic_zero,
        "residual": to_text(report.residual),
        "numeric_max": report.numeric_max,
        "tol": tol,
    }
    _render(payload, config)
    return 0 if report.ok else 1


def _cmd_determining(args, config: RunConfig) -> int:
    pde = _pde(config)
    system = vf.determining_equations(pde)
    _, fns = vf.general_ansatz()
    bodies = vf.symmetry_family_bodies(fns, pde=pde)
    solution_ok = all(substitute_functions(eq, bodies) == ZERO
                      for _, eq in system.records)
    payload = {
        "monomial_count": system.raw_count,
        "unique_count": system.unique_count,
        "published_count": PUBLISHED_DETERMINING_COUNT,
        "count_comparison": "reported, not asserted",
        "solution_check": solution_ok,
        "equations": [{"monomial": vf.monomial_text(mono),
                       "expression": to_text(eq)}
                      for mono, eq in system.records],
    }
    rows = [[e["monomial"], e["expression"]] for e in payload["equations"]]
    _render(payload, config, (["monomial", "equation"], rows),
            note=f"monomials: {system.raw_count}, unique: {system.unique_count}, "
                 f"published count: {PUBLISHED_DETERMINING_COUNT} (not asserted), "
                 f"solution check: {'pass' if solution_ok else 'FAIL'}")
    return 0 if solution_ok else 1


def _cmd_optimal(args, config: RunConfig) -> int:
    coeffs = [_coefficient(part) for part in args.coeffs.split(",")]
    result = adjoint.normalize(coeffs)
    payload = {
        "class": result.cls.class_id,
        "label": result.cls.label,
        "c1": result.cls.c1,
        "c2": result.cls.c2,
        "word": [{"t": t, "s": s} for t, s in result.word],
        "representative": list(result.cls.representative),
        "scale": result.scale,
    }
    _render(payload, config)
    return 0


def _published_row_index(label: str) -> int | None:
    normalized = label.replace(" ", "")
    for i, (row_label, _, _) in enumerate(reduction.published_similarity_rows(), start=1):
        if row_label.replace(" ", "") == normalized:
            return i
    return None


def _reduction(args, config: RunConfig):
    """The --generator's chart, its reduced equation and the numeric
    cross-check of the two, at --tol (default 1e-7)."""
    pde = _pde(config)
    chart = reduction.characteristic_invariants(_parse_generator(args.generator, config))
    reduced = reduction.reduce_pde(pde, chart)
    tol = config.tol if config.tol is not None else 1e-7
    report = reduction.verify_reduction(pde, chart, reduced, seed=config.seed, tol=tol)
    return pde, chart, reduced, report


def _cmd_reduce(args, config: RunConfig) -> int:
    pde, chart, reduced, report = _reduction(args, config)
    row_index = _published_row_index(args.generator)
    payload = {
        "generator": args.generator,
        "xi": to_text(chart.xi),
        "eta": to_text(chart.eta),
        "u": "h(xi, eta)",
        "f": "g(xi, eta)",
        "reduced_residual": to_text(reduced.residual),
        "table4_row": None,
        "diff_terms": [],
        "verify": {k: getattr(report, k) for k in ("max_discrepancy", "seed", "tol", "passed")},
    }
    exit_code = 0
    if row_index is not None:
        audit_row = reduction.audit_reduction_table(pde)[row_index - 1]
        payload["table4_row"] = row_index
        payload["diff_terms"] = list(audit_row.diff_terms)
        payload["published_residual"] = to_text(audit_row.published)
        payload["match"] = audit_row.match
        if not audit_row.match:
            exit_code = AUDIT_MISMATCH
    _render(payload, config)
    return exit_code if report.passed else 1


def _cmd_verify_reduction(args, config: RunConfig) -> int:
    report = _reduction(args, config)[3]
    _render({"generator": args.generator, **report._asdict()}, config)
    return 0 if report.passed else 1


def _read_seeds(path: str) -> list[tuple[float, float, float]]:
    """(x, y, t) rows of three finite numbers from a JSON list of rows or a
    CSV/whitespace file with one row per line."""
    text = Path(path).read_text()
    if path.endswith(".json"):
        rows = json.loads(text, parse_int=float)   # a huge integer reads as inf
        if not isinstance(rows, list):
            raise ValueError("a JSON seed file holds a list of [x, y, t] rows")
        for row in rows:
            if not (isinstance(row, list) and len(row) == 3
                    and all(type(v) is float for v in row)):
                raise ValueError(f"seed row needs three numbers: {json.dumps(row)}")
    else:
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [float(p) for p in line.replace(",", " ").split()]
            if len(parts) != 3:
                raise ValueError(f"seed line needs three numbers: {line!r}")
            rows.append(parts)
    return [tuple(_finite(v, "seed coordinates") for v in row) for row in rows]


def _cmd_flow(args, config: RunConfig) -> int:
    gen = _parse_generator(args.generator, config)
    fm = flows.flow_map(gen)
    lo_s, hi_s, n_s = args.eps.split(":")
    seeds = _read_seeds(args.seeds)
    lo, hi = (_finite(float(v), "--eps bounds") for v in (lo_s, hi_s))
    samples = flows.sample_flow(fm, seeds, (lo, hi, int(n_s)), project_xy=args.project_xy)
    if config.fmt != "json":    # flow's one table form is CSV, under markdown too
        sys.stdout.write(flows.samples_to_csv(samples))
        return 0
    columns = ["seed_id", "eps", "x", "y"] + ([] if args.project_xy else ["t"])
    rows = [[s.seed_id, s.eps, s.x, s.y] + ([] if args.project_xy else [s.t])
            for s in samples]
    _render({
        "generator": args.generator,
        "map": {"x": to_text(fm.x_eps), "y": to_text(fm.y_eps), "t": to_text(fm.t_eps)},
        "columns": columns,
        "rows": rows,
    }, config)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    # the same options are accepted before and after the subcommand; the
    # subcommand-level copies default to SUPPRESS so they override the
    # top-level values only when given
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--format", choices=("json", "markdown", "csv"),
                        default=dflt("json"))
    parser.add_argument("--seed", type=int, default=dflt(42))
    parser.add_argument("--tol", type=float, default=dflt(None),
                        help="tolerance override for verification commands")
    parser.add_argument("--param-a", default=dflt(None),
                        help="numeric value for the coefficient a (default symbolic)")
    parser.add_argument("--param-b", default=dflt(None),
                        help="numeric value for the coefficient b (default symbolic)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viscosym",
        description="Symmetry toolkit for the 2D viscoelastic equation "
                    "u_tt - a*(u_xxt + u_yyt) - b*(u_xx + u_yy) = f")
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        _add_common(p, suppress=True)
        return p

    command("table", _cmd_table, "commutator table of the symmetry basis")
    command("adjoint-table", _cmd_adjoint_table,
            "adjoint action audit against the published table")
    p = command("adjoint-matrix", _cmd_adjoint_matrix, "one adjoint matrix, exact in s")
    p.add_argument("--t", type=int, required=True, help="basis index 1..5")
    p = command("verify", _cmd_verify, "check a generator for the symmetry condition")
    p.add_argument("--generator", required=True,
                   help='basis label/combination ("X1 + 2*X3") or JSON with xi1..phi2')
    command("determining", _cmd_determining, "determining equations and the solution check")
    p = command("optimal", _cmd_optimal,
                "normalize a coefficient vector into the optimal system")
    p.add_argument("--coeffs", required=True, help="five comma-separated numbers")
    p = command("reduce", _cmd_reduce, "similarity chart and reduced equation")
    p.add_argument("--generator", required=True)
    p = command("verify-reduction", _cmd_verify_reduction,
                "numeric cross-check of the reduction")
    p.add_argument("--generator", required=True)
    p = command("flow", _cmd_flow, "sample one-parameter flow trajectories")
    p.add_argument("--generator", required=True)
    p.add_argument("--seeds", required=True, help="JSON or CSV file of (x, y, t) seeds")
    p.add_argument("--eps", required=True, help="LO:HI:N sampling of the parameter")
    p.add_argument("--project-xy", action="store_true",
                   help="drop the t column (plane projection)")
    return parser


_ENV_DEFAULTS = (("VISCOSYM_FORMAT", "--format"), ("VISCOSYM_SEED", "--seed"))


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # an environment default is parsed as the same flag given first, so it
    # is validated like the flag and any later flag overrides it
    env = [f"{flag}={os.environ[var]}" for var, flag in _ENV_DEFAULTS if var in os.environ]
    args = parser.parse_args(env + (sys.argv[1:] if argv is None else list(argv)))
    try:
        tol = _finite(args.tol, "--tol")
        if tol is not None and tol <= 0:    # a sampled check passes only when |value| < tol
            raise ValueError(f"--tol must be greater than 0, got {tol!r}")
        params = {sym: _param(text, flag) for sym, text, flag in
                  ((A_SYM, args.param_a, "--param-a"), (B_SYM, args.param_b, "--param-b"))
                  if text is not None}
        config = RunConfig(fmt=args.format, seed=args.seed, tol=tol, params=params)
        return args.handler(args, config)
    except (ExprError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:   # a defect, not bad input: never exit 1 with a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
