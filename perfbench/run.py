#!/usr/bin/env python3
"""Build the DIVOT benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
the library and the benchmark binary (perfbench/CMakeLists.txt) under
.bench_build/perfbench; later calls rebuild incrementally. Work
databases and span files go to .bench_build/perfbench-work.

The binary's `report` line (provenance, the workload's own figures,
digests, failed checks, span self times) is passed through. The last
line printed is the result object, restricted to the metric names
BENCHMARK.json declares for the mode: end_to_end with --trace 0,
per_layer with --trace 1. A per-layer metric the workload does not
exercise reads 0 (the layer was not called). Exit status is 1 when an
output check failed (the result line says correct: false), and
non-zero with no result line when the build fails, the binary crashes
or times out, or it emits a metric BENCHMARK.json does not declare.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
BINARY = BUILD / "divot_perfbench"
RUN_TIMEOUT_S = 170


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configure and build the benchmark binary (incremental); output to stderr."""
    for cmd in (["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", jobs(),
                 "--target", "divot_perfbench"]):
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def commit():
    """Commit id when the checkout root is a git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def declared(mode_key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[mode_key]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test scale (not comparable to full runs)")
    args = ap.parse_args()

    names = declared("per_layer" if args.trace == "1" else "end_to_end")
    # Compiler and benchmark temporaries stay inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    build()
    WORK.mkdir(parents=True, exist_ok=True)

    env = dict(os.environ)
    env["PERFBENCH_COMMIT"] = commit() or "unavailable"
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", str(WORK)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: divot_perfbench exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    # Exit 1 means "ran, but an output check failed": the result line
    # (correct: false) is still printed, and this script exits 1 too.
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        sys.exit(f"run.py: divot_perfbench exited {proc.returncode}")

    print(lines[-2])  # the report line
    result = json.loads(lines[-1])
    emitted = result["metrics"]
    unknown = sorted(set(emitted) - {n for n, _ in names})
    if unknown:
        sys.exit(f"run.py: metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in names:
        m = emitted.get(name)
        if m is None:
            if args.trace == "0":
                sys.exit(f"run.py: end-to-end metric {name} missing")
            m = {"value": 0, "unit": unit}
        metrics[name] = m
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
