"""Record a baseline: every workload untraced and traced, with the
environment, written to bench/baseline.json.

    python3 bench/baseline.py --seed 1

Each run lasts BENCHMARK.json's run_seconds.  Run from a git checkout (the
sha is read with git).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line for line in lines[:-1]
                       if not (len(line.split()) == 3 and line.split()[0] in result["metrics"])]
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    import numpy
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    src_lines = sum(len(path.read_text().splitlines())
                    for path in sorted((ROOT / "src").rglob("*.py")))
    baseline = {
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "nproc": os.cpu_count(), "git_sha": sha,
                        "machine": platform.machine()},
        "src_lines": src_lines,
        "seed": args.seed,
        "seconds": seconds,
        "workloads": {w: {"end_to_end": _run(w, args.seed, seconds, 0),
                          "per_layer": _run(w, args.seed, seconds, 1)}
                      for w in WORKLOADS},
    }
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
