#!/usr/bin/env python3
"""Smoke test of the simulator benchmark.

    python3 simbench/smoke_test.py

Runs every workload at a short horizon (five simulated seconds per
scenario), untraced and traced, at the default seed and a second one,
through simbench/run.py exactly as a benchmark run would. Asserts that
every output check passed, that the traced run reproduced the untraced
fingerprint, and that every metric BENCHMARK.json names is printed with
its unit, so a renamed metric fails loudly. Last, it asserts that the
benchmark refuses, with a nonzero exit and no result, to run in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits nonzero on the first failure.
"""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SEEDS = (1000, 7)


def run(workload, seed, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--short"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)


def fingerprints(stdout, workload):
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts[:2] == ["fingerprint", workload]:
            out[parts[2].removeprefix("seed=")] = parts[3]
    return out


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            fps = {}
            for trace in (0, 1):
                what = f"{workload} seed={seed} trace={trace}"
                p = run(workload, seed, trace)
                check(p.returncode == 0, f"{what}: exit {p.returncode}\n{p.stderr[-2000:]}")
                result = json.loads(p.stdout.strip().splitlines()[-1])
                check(set(result) == {"correct", "attempted", "failed", "metrics"},
                      f"{what}: result keys {sorted(result)}")
                check(result["correct"] is True and result["failed"] == 0,
                      f"{what}: output checks failed\n{p.stdout[-2000:]}")
                check(result["attempted"] >= 1, f"{what}: nothing attempted")
                metrics = result["metrics"]
                check(set(metrics) == set(units[trace]),
                      f"{what}: metrics {sorted(set(metrics) ^ set(units[trace]))} "
                      "differ from BENCHMARK.json")
                for name, m in metrics.items():
                    check(m["unit"] == units[trace][name], f"{what}: {name} unit")
                    check(isinstance(m["value"], (int, float)) and
                          math.isfinite(m["value"]), f"{what}: {name} value")
                fps[trace] = fingerprints(p.stdout, workload)
                check(str(seed) in fps[trace], f"{what}: no fingerprint printed")
            check(fps[0][str(seed)] == fps[1][str(seed)],
                  f"{workload} seed={seed}: traced fingerprint differs from untraced")
            print(f"ok {workload} seed={seed} fingerprint={fps[0][str(seed)]}")

    # Without the simulator's sources the benchmark must fail cleanly.
    build = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    bare = build.resolve() / "smoke-bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
    p = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "mesh100",
                        "--seconds", "1"], capture_output=True, text=True, cwd=bare,
                       env=env, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(p.returncode != 0, "bare checkout: benchmark did not fail")
    check('"correct"' not in p.stdout, "bare checkout: benchmark printed a result")
    print("ok bare checkout refused")
    print("smoke test passed")


if __name__ == "__main__":
    main()
