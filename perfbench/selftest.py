#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, at --tiny scale (seconds-long
runs, not comparable to full runs):
  - two untraced runs and one traced run through perfbench/run.py pass
    every output check (correct, failed == 0) and print exactly the
    metric names BENCHMARK.json declares for the mode;
  - the benchmark binary itself emits exactly the per-layer metrics
    perfbench/layers.json says the workload measures, and every figure
    it lists;
  - the score / response / verdict digests repeat across the three runs.
It also checks that layers.json covers every declared metric, and that
run.py fails without printing a result in a directory holding only
BENCHMARK.json and perfbench/. Exits 1 when any check fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())
BINARY = ROOT / ".bench_build" / "perfbench" / "divot_perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
SEED = 7
SECONDS = "2"

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}", flush=True)


def run_py(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", SECONDS, "--trace",
         trace, "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and len(lines) >= 2,
          f"{workload} trace={trace}: run.py exited {proc.returncode}: "
          f"{proc.stderr[-500:]}")
    if len(lines) < 2:
        return None, None
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def raw_layer_names(workload):
    proc = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", "1", "--tiny", "--work-dir",
         str(WORK)], cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return None
    return set(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])


def check_map():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per = [m["name"] for m in SPEC["per_layer"]]
    workloads = [w["name"] for w in SPEC["workloads"]]
    check(sorted(LAYERS["end_to_end"]) == sorted(e2e),
          "layers.json end_to_end does not match BENCHMARK.json")
    for name, by_workload in LAYERS["end_to_end"].items():
        check(sorted(by_workload) == sorted(workloads),
              f"layers.json end_to_end.{name} misses a workload")
    measured = set()
    for layer in LAYERS["layers"].values():
        for names in layer["measured_on"].values():
            measured.update(names)
    check(measured == set(per),
          "layers.json measured_on does not cover exactly the per_layer "
          f"metrics: {sorted(measured ^ set(per))}")


def check_workload(name):
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per = [m["name"] for m in SPEC["per_layer"]]
    digests = []
    for trace in ("0", "0", "1"):
        report, result = run_py(name, trace)
        if result is None:
            return
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"{name}: result keys {sorted(result)}")
        check(result["correct"] is True and result["failed"] == 0,
              f"{name} trace={trace}: checks failed: {report['problems']}")
        check(result["attempted"] >= 1, f"{name}: attempted < 1")
        want = e2e if trace == "0" else per
        check(list(result["metrics"]) == want,
              f"{name} trace={trace}: metric names differ from BENCHMARK.json")
        if trace == "0":
            for k, m in result["metrics"].items():
                check(isinstance(m["value"], (int, float)) and m["value"] > 0,
                      f"{name}: end-to-end metric {k} is {m['value']}")
        missing = [f for f in LAYERS["figures"][name]
                   if f not in report["figures"]]
        check(not missing, f"{name}: figures missing {missing}")
        digests.append(report["digests"])
    check(len(digests) == 3 and digests[0] and
          digests[0] == digests[1] == digests[2],
          f"{name}: digests do not repeat: {digests}")

    expected = set()
    for layer in LAYERS["layers"].values():
        expected.update(layer["measured_on"].get(name, []))
    emitted = raw_layer_names(name)
    check(emitted == expected,
          f"{name}: binary per-layer names differ from layers.json: "
          f"{sorted((emitted or set()) ^ expected)}")


def check_bare_directory():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    proc = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "run.py did not fail cleanly without the sources")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    check_map()
    for w in SPEC["workloads"]:
        print(f"== {w['name']}", flush=True)
        check_workload(w["name"])
    print("== bare directory", flush=True)
    check_bare_directory()
    if failures:
        print(f"selftest: {len(failures)} check(s) failed")
        sys.exit(1)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
