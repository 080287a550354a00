"""One long-lived library session: runs the deck of the ``derive`` or
``classify-flow`` workload REPS times in this process and writes a JSON
report with one latency list per repetition.

    python3 bench/worker.py --workload derive --seed 1 --reps 3 --out report.json [--trace]

With ``--reps 0`` it only sets up and reports the set-up time: for a
session workload, importing viscosym and building the equation and the
basis; for ``cli-oneshot``, importing ``viscosym.cli``.  Expects ``src`` on
PYTHONPATH.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _setup(workload: str):
    """What a process of the workload does before its first operation:
    import viscosym, and for a session also build the equation and basis."""
    started = time.perf_counter()
    if workload == "cli-oneshot":
        import viscosym.cli
    import viscosym
    imported = time.perf_counter()
    if Path(viscosym.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"viscosym imported from {viscosym.__file__}, not from {SRC}")
    if workload == "cli-oneshot":
        return viscosym, None, imported - started, imported - started
    pde = viscosym.viscoelastic_pde()
    viscosym.standard_basis()
    return viscosym, pde, imported - started, time.perf_counter() - started


def run_op(V, pde, op):
    """One timed operation; returns the library's results."""
    kind = op["kind"]
    if kind == "pipeline":
        gen = V.parse_basis_combination(op["generator"])
        symmetry = V.verify_symmetry(gen, pde)
        chart = V.characteristic_invariants(gen)
        reduced = V.reduce_pde(pde, chart)
        return symmetry, chart, V.verify_reduction(pde, chart, reduced, seed=op["seed"])
    if kind == "determining":
        return V.determining_equations(pde)
    if kind == "adjoint-audit":
        return V.audit_adjoint_table()
    if kind == "reduction-audit":
        return V.audit_reduction_table(pde)
    from fractions import Fraction
    from viscosym.vector_fields import basis_combination
    v = op["v"]
    normal = V.normalize(v)
    same = V.equivalent(v, [op["scale"] * c for c in v])
    rep = normal.cls.representative
    fm = V.flow_map(basis_combination([Fraction(c) for c in rep]))
    return normal, same, V.sample_flow(fm, op["seeds"], tuple(op["eps"]))


def answer_of(op, result, to_text) -> dict:
    """Plain fields for the checks, extracted outside the timed region."""
    kind = op["kind"]
    if kind == "pipeline":
        symmetry, chart, report = result
        return {"symmetry_ok": symmetry.ok, "symbolic_zero": symmetry.symbolic_zero,
                "kind": chart.kind, "xi": to_text(chart.xi), "eta": to_text(chart.eta),
                "passed": report.passed, "max_discrepancy": report.max_discrepancy}
    if kind == "determining":
        return {"raw": result.raw_count, "unique": result.unique_count}
    if kind == "adjoint-audit":
        return {"mismatches": [[c.t, c.r] for c in result if not c.match]}
    if kind == "reduction-audit":
        return {"rows": len(result), "matches": sum(row.match for row in result)}
    normal, same, samples = result
    return {"label": normal.cls.label, "c1": normal.cls.c1, "c2": normal.cls.c2,
            "word": [list(w) for w in normal.word], "scale": normal.scale,
            "representative": list(normal.cls.representative), "equivalent": same,
            "samples": [[s.seed_id, s.eps, s.x, s.y, s.t] for s in samples]}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("cli-oneshot", "derive", "classify-flow"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="append trace spans to this file")
    args = parser.parse_args()

    V, pde, import_s, setup_s = _setup(args.workload)
    report = {"import_s": import_s, "setup_s": setup_s, "latencies": [],
              "failures": [], "controls_missed": []}
    if args.reps:
        import checks
        import inputs
        to_text = V.to_text   # kept unwrapped: answers are extracted untraced
        tracer = None
        if args.trace:
            import viscosym.cli  # noqa: F401  (wrapped too, so cli.run reads 0, not missing)
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        ops = inputs.deck(args.workload, args.seed, BENCH / "out")
        answers = {}
        for _ in range(args.reps):
            latencies = []
            for op_id, op in enumerate(ops):
                if tracer:
                    tracer.op_id = op_id
                started = time.perf_counter()
                try:
                    result = run_op(V, pde, op)
                except Exception as exc:   # a crash fails this operation only
                    latencies.append(time.perf_counter() - started)
                    report["failures"].append({"op": op_id, "kind": op["kind"], "crash": True,
                                               "message": f"{type(exc).__name__}: {exc}",
                                               "traceback": traceback.format_exc()})
                    continue
                latencies.append(time.perf_counter() - started)
                if tracer:
                    tracer.op_id = None
                answer = answer_of(op, result, to_text)
                message = checks.check_inproc(op, answer)
                if message:
                    report["failures"].append({"op": op_id, "kind": op["kind"],
                                               "crash": False, "message": message})
                answers[op_id] = answer
            report["latencies"].append(latencies)
        report["controls_missed"] = checks.inproc_controls(
            [ops[i] for i in answers], list(answers.values()))
        if tracer:
            report["trace"] = tracer.summary()
            if args.spans:
                tracer.write_spans(args.spans, f"{args.workload}-{args.seed}", _START)
    Path(args.out).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
