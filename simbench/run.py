#!/usr/bin/env python3
"""Simulator benchmark: build the program from source, run one workload.

Run from the repository root:

    python3 simbench/run.py --workload mesh100 --seed 1000 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(names and units are declared once, in BENCHMARK.json). The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. The lines before it give each scenario's fingerprint, the build
provenance and the metrics as a table. See simbench/README.md.

The build goes to $CARGO_TARGET_DIR/simbench (default .bench_build/simbench)
and is a Release build of the library and simbench/simbench.cpp.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing")
    return json.loads(path.read_text())


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or str(ROOT / ".bench_build")
    return pathlib.Path(target).resolve() / "simbench"


def build():
    """Configure once, then build incrementally; returns the program's path."""
    for needed in ("CMakeLists.txt", "src/exp/scenario.hpp"):
        if not (ROOT / needed).is_file():
            fail(f"{ROOT / needed} is missing; run from a full checkout")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", str(bdir), "--target", "simbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return bdir / "simbench"


def source_digest():
    """sha256 over the library sources and the benchmark, for provenance
    in checkouts that are not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for base in (ROOT / "src", HERE):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="five simulated seconds per scenario (smoke test)")
    args = ap.parse_args()

    program = build()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"benchmark program exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark program printed no result")
    result = json.loads(lines[-1])

    got = result["metrics"]
    if set(got) != set(units):
        fail("benchmark metrics do not match BENCHMARK.json: "
             f"missing {sorted(set(units) - set(got))}, "
             f"unexpected {sorted(set(got) - set(units))}")
    for name, value in got.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value!r}")

    for seed, fp in result["fingerprints"].items():
        print(f"fingerprint {args.workload} seed={seed} {fp}")
    for f in result["failures"]:
        print(f"check failed: {f}")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "short": args.short,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "elapsed_s": round(time.monotonic() - started, 3),
        **result["build"],
        **result["host"],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name in units:
        print(f"{name:32s} {got[name]:>16.6g} {units[name]}")

    failed = int(result["failed"])
    attempted = int(result["attempted"])
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": got[n], "unit": units[n]} for n in units},
    }))


if __name__ == "__main__":
    main()
