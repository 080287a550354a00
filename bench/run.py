"""viscosym benchmark.

    python3 bench/run.py --workload {cli-oneshot,derive,classify-flow} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; viscosym is imported from ./src.
With --trace 0 it measures the end-to-end metrics; with --trace 1 it makes
a separate traced run and reports the per-layer metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("cli-oneshot", "derive", "classify-flow")

# Nominal duration of one pass over a workload's deck.  A run makes
# round(seconds / nominal) passes over the same deck: the count depends on
# --seconds alone, never on measured speed, so both commits of a comparison
# run identical inputs.  On the machine described in README.md a pass took
# 0.9 to 2 times its nominal duration, as the machine slowed down.
NOMINAL_PASS_S = {"cli-oneshot": 9.0, "derive": 4.0, "classify-flow": 2.5}

SETUP_SAMPLES = 3           # fresh set-up processes before a run, and again after it
TRACE_PASSES = 2            # untraced, then traced, in a --trace 1 run

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

_KERNEL = ("add", "mul", "pow_", "substitute", "total_derivative", "diff_atom",
           "eval_numeric")
PER_LAYER = (
    [f"expr.{fn}.{kind}" for fn in _KERNEL for kind in ("calls", "self_s")]
    + ["flows.sample_flow.self_s", "flows.sample_flow.points", "flows.flow_map.self_s",
       "vector_fields.determining_equations.self_s",
       "vector_fields.verify_symmetry.self_s", "vector_fields.commutator_table.self_s",
       "reduction.verify_reduction.self_s", "reduction.characteristic_invariants.self_s",
       "reduction.reduce_pde.self_s",
       "adjoint.adjoint_matrices.calls", "adjoint.adjoint_matrices.self_s",
       "adjoint.adjoint_matrix.self_s",
       "adjoint.normalize.self_s", "adjoint.equivalent.self_s",
       "import.viscosym.s", "cli.run.self_s", "parsing.parse.calls", "parsing.parse.self_s",
       "trace.ops_per_s", "trace.ops_per_s_delta", "error_ratio"])


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"     # identical kernel call sequences across runs
    return env


def _spawn(argv: list[str], tag: str) -> tuple[float, int, str, str, float]:
    """Run one process to completion: (seconds, exit code, stdout, stderr,
    peak RSS in MB of that process)."""
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (elapsed, proc.returncode, out_path.read_text(), err_path.read_text(),
            usage.ru_maxrss / 1024.0)


def _passes(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it,
    and that percentile.  Below 21 samples no percentile above the median
    has ten beyond it; the tail is then the slowest sample (p100)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# Library processes (worker.py): sessions, and set-up samples that stop
# before the first operation
# ---------------------------------------------------------------------------

def _worker(workload: str, seed: int, passes: int, trace: bool, tag: str) -> dict:
    report = OUT / f"{tag}.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--reps", str(passes), "--out", str(report)]
    if trace:
        argv += ["--trace", "--spans", str(OUT / f"spans-{workload}-{seed}.jsonl")]
    _, code, _, err, peak = _spawn(argv, tag)
    if code != 0:
        raise RuntimeError(f"{workload} worker exited {code}: {err.strip()[-2000:]}")
    data = json.loads(report.read_text())
    data["peak_rss_mb"] = peak
    return data


def _setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up times of SETUP_SAMPLES fresh processes: ``import viscosym.cli``
    for cli-oneshot, and the import plus the equation and the basis for a
    session (see worker.py)."""
    return [_worker(workload, seed, 0, False, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]


# ---------------------------------------------------------------------------
# cli-oneshot: one fresh `python -m viscosym.cli` process per operation
# ---------------------------------------------------------------------------

def _run_cli_ops(seed: int, passes: int, traced: bool) -> dict:
    ops = inputs.deck("cli-oneshot", seed, OUT)
    latencies, rss, failures, summaries, imports = [], [], [], [], []
    spans = OUT / f"spans-cli-oneshot-{seed}.jsonl"
    for _ in range(passes):
        latencies.append([])
        answers = []
        for op_id, op in enumerate(ops):
            if traced:
                report = OUT / f"cli-trace-{op_id}.json"
                argv = [sys.executable, str(BENCH / "cli_traced.py"), str(report), str(spans),
                        str(op_id)] + op["argv"]
            else:
                argv = [sys.executable, "-m", "viscosym.cli"] + op["argv"]
            elapsed, code, out, err, peak = _spawn(argv, "cli-op")
            latencies[-1].append(elapsed)
            rss.append(peak)
            answer = {"exit": code, "stdout": out, "stderr": err}
            message = checks.check_cli(op, answer)
            if message:
                failures.append({"op": op_id, "kind": op["kind"], "message": message,
                                 "crash": "Traceback" in err})
            answers.append(answer)
            if traced:
                data = json.loads(report.read_text())
                summaries.append(data["trace"])
                imports.append(data["import_s"])
    return {"latencies": latencies, "peak_rss_mb": max(rss), "failures": failures,
            "controls_missed": checks.cli_controls(ops, answers),
            "trace": tracing.merge(summaries) if traced else None,
            "import_s": statistics.median(imports) if traced else None}


def run_cli(seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    # first process in a checkout compiles the bytecode; not a user's steady cost
    _spawn([sys.executable, "-m", "viscosym.cli", "table"], "cli-warmup")
    setup = _setup_samples("cli-oneshot", seed)
    result = _run_cli_ops(seed, TRACE_PASSES if trace else _passes("cli-oneshot", seconds),
                          False)
    result["setup_s"] = statistics.median(setup + _setup_samples("cli-oneshot", seed))
    if trace:
        (OUT / f"spans-cli-oneshot-{seed}.jsonl").unlink(missing_ok=True)
        result["traced"] = _run_cli_ops(seed, TRACE_PASSES, True)
    return result


# ---------------------------------------------------------------------------
# derive and classify-flow: one long-lived library process
# ---------------------------------------------------------------------------

def run_session(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    _worker(workload, seed, 0, False, "warmup")   # bytecode compilation
    # Set-up samples: fresh processes before and after the session, and the
    # session's own set-up.
    setup = _setup_samples(workload, seed)
    passes = TRACE_PASSES if trace else _passes(workload, seconds)
    result = _worker(workload, seed, passes, False, "session")
    setup += _setup_samples(workload, seed) + [result["setup_s"]]
    result["setup_s"] = statistics.median(setup)
    if trace:
        (OUT / f"spans-{workload}-{seed}.jsonl").unlink(missing_ok=True)
        result["traced"] = _worker(workload, seed, TRACE_PASSES, True, "session-traced")
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _per_op(result: dict) -> list[float]:
    """Each operation's mean latency over the passes, which run the same
    inputs.  The machine alternates between slow and fast phases of some
    seconds; the mean weighs them by the time they last, where the fastest
    or the median pass jumps with the phase a run happens to catch."""
    return [statistics.fmean(column) for column in zip(*result["latencies"])]


def _ops_per_s(latencies: list[float]) -> float:
    return len(latencies) / sum(latencies)


def end_to_end(result: dict) -> dict:
    per_op = _per_op(result)
    return {"ops_per_s": _ops_per_s(per_op),
            "op_p50_s": statistics.median(per_op),
            "op_tail_s": _tail(per_op)[0],
            "setup_s": result["setup_s"],
            "peak_rss_mb": result["peak_rss_mb"]}


def per_layer(result: dict) -> dict:
    traced = result["traced"]
    summary = traced["trace"]
    out = {}
    for name in PER_LAYER:
        fn, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s", "points"):
            # 0 only for a function that was wrapped and never called; a
            # renamed or removed function is a lost layer, not a speed-up
            if fn not in summary["wrapped"]:
                raise SystemExit(f"error: per-layer metric {name}: {fn} was not wrapped")
            out[name] = summary[kind].get(fn, 0)
    out["import.viscosym.s"] = traced["import_s"]
    out["trace.ops_per_s"] = _ops_per_s(_per_op(traced))
    out["trace.ops_per_s_delta"] = out["trace.ops_per_s"] - _ops_per_s(_per_op(result))
    attempted = sum(len(latencies) for latencies in traced["latencies"])
    out["error_ratio"] = len(traced["failures"]) / attempted
    return out


def _correct(failures: list[dict], missed: list[str]) -> bool:
    """A run is correct when the checks caught every negative control and the
    only failed operations are the ROADMAP item 5 crashers, crashing as they
    do at the seed.  Any other failure, a crash included, makes it incorrect."""
    return not missed and all(f["kind"] == "crasher" and f["crash"] for f in failures)


def _verdict_controls(ops: list[dict]) -> list[str]:
    """Negative controls of the verdict: a crash of any kind of operation
    in the deck other than the crashers must make the run incorrect."""
    kinds = sorted({op["kind"] for op in ops} - {"crasher"})
    return [f"{kind}:crash" for kind in kinds if _correct([{"kind": kind, "crash": True}], [])]


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("calls", "points")):
        return "count"
    if name == "error_ratio":
        return "ratio"
    return "1/s" if "ops_per_s" in name else "s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (SRC / "viscosym" / "cli.py", checks.SCHEMA_DIR) if not p.exists()]
    if missing:
        print(f"error: not a viscosym checkout (missing {missing[0]})", file=sys.stderr)
        return 2

    if args.workload == "cli-oneshot":
        result = run_cli(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_session(args.workload, args.seed, args.seconds, bool(args.trace))

    runs = [result] + ([result["traced"]] if args.trace else [])
    failures = [f for run in runs for f in run["failures"]]
    missed = [m for run in runs for m in run["controls_missed"]]
    missed += _verdict_controls(inputs.deck(args.workload, args.seed, OUT))
    metrics = per_layer(result) if args.trace else end_to_end(result)
    attempted = sum(len(latencies) for latencies in result["latencies"])
    failed = len(result["failures"])

    per_op = _per_op(result)
    _, percentile = _tail(per_op)
    print(f"workload {args.workload}  seed {args.seed}  operations {len(per_op)} x "
          f"{len(result['latencies'])} passes  failed {failed} of {attempted}  "
          f"error_ratio {failed / attempted:.6f}")
    print(f"op_tail_s is the p{percentile:.1f} latency over {len(per_op)} operations")
    for failure in failures:
        kind = "crash" if failure["crash"] else "wrong answer"
        print(f"  {kind}: op {failure['op']} ({failure['kind']}): {failure['message']}")
    for name in missed:
        print(f"  negative control not caught: {name}")
    for name, value in metrics.items():
        print(f"{name} {value} {_unit(name)}")
    correct = _correct(failures, missed)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, "tail_percentile": percentile, "failures": failures,
                    "controls_missed": missed, "latencies": result["latencies"]}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": _unit(name)}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
