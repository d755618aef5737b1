#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload fleet-service --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...)
with tracing off and BENCHMARK.json's run_seconds, then prints, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
as statistics.quantiles(values, n=4) gives them, next to the metric's
bound. A spread above a third of the bound is flagged. Exits 1 when a
run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for k in range(args.runs):
        seed = args.first_seed + k
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"spread.py: seed {seed} failed")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
        print(f"{args.workload} {m['name']}: median {med:.6g} "
              f"spread {spread:.4f} bound {m['bound']}{flag}")


if __name__ == "__main__":
    main()
