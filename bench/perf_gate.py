#!/usr/bin/env python3
"""Compare BENCH_*.json perf summaries against a committed baseline.

Usage:
    perf_gate.py --baseline bench/baseline.json CURRENT.json [CURRENT2.json...]
                 [--tolerance 0.25] [--counter-tolerance 0.10]
                 [--gate-counter NAME]... [--markdown-out PATH]

The baseline and the current files use the schema written by
bench/perf_json.hpp (schema_version 1). Benchmarks are matched by name;
two quantities are gated:

  * per-iteration real time, against --tolerance:
      - current > baseline * (1 + tolerance)  ->  REGRESSION, exit 1
      - current < baseline * (1 - tolerance)  ->  warning: faster than
        baseline; suggest rebaselining so future regressions are caught
        from the new, better level
  * gated counters (bytes_per_node by default; add more with repeated
    --gate-counter), against --counter-tolerance. Gated counters are
    size/cost-like: HIGHER is a regression. A counter present in only
    one side is skipped, so adding a counter to a benchmark does not
    break the gate until it is rebaselined in.

Baseline entries that none of the current files ran are reported and
skipped (CI runs a pinned subset of bench_micro).

--markdown-out appends a compact delta table (one row per compared
quantity) to the given file; CI points it at $GITHUB_STEP_SUMMARY.

Rebaselining (after an intentional perf change): run the benches, then
merge the fresh summaries into the baseline with
    perf_gate.py --rebaseline bench/baseline.json NEW.json [NEW2.json...]
Only uses the Python standard library.
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA_VERSION = 1

# Counters gated by default when both sides carry them. All gated
# counters are treated as "higher = worse".
DEFAULT_GATED_COUNTERS = ("bytes_per_node",)


def load_summary(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        sys.exit(f"{path}: schema_version {version} != expected {SCHEMA_VERSION}")
    if not isinstance(data.get("benchmarks"), list):
        sys.exit(f"{path}: missing 'benchmarks' array")
    return data


def index_benchmarks(data: dict) -> dict[str, dict]:
    return {b["name"]: b for b in data["benchmarks"]}


def fmt_time(ns: float) -> str:
    if ns < 1e3:
        return f"{ns:.1f} ns"
    if ns < 1e6:
        return f"{ns / 1e3:.2f} us"
    if ns < 1e9:
        return f"{ns / 1e6:.2f} ms"
    return f"{ns / 1e9:.3f} s"


def fmt_counter(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:g}"


def write_markdown(path: str, rows: list[tuple[str, str, str, str, str]],
                   tolerance: float, counter_tolerance: float) -> None:
    """Append a delta table (quantity, baseline, current, delta, verdict)."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("### Perf gate: baseline vs current\n\n")
        fh.write("| benchmark | baseline | current | delta | verdict |\n")
        fh.write("|---|---|---|---|---|\n")
        for row in rows:
            fh.write("| " + " | ".join(row) + " |\n")
        fh.write(f"\nTolerance: time ±{tolerance:.0%}, "
                 f"counters ±{counter_tolerance:.0%}. Gated counters are "
                 "higher-is-worse.\n")


def gate(args: argparse.Namespace) -> int:
    baseline = index_benchmarks(load_summary(args.baseline))
    current: dict[str, dict] = {}
    for path in args.current:
        current.update(index_benchmarks(load_summary(path)))

    gated_counters = list(DEFAULT_GATED_COUNTERS)
    for name in args.gate_counter:
        if name not in gated_counters:
            gated_counters.append(name)

    regressions: list[str] = []
    faster: list[str] = []
    skipped: list[str] = []
    md_rows: list[tuple[str, str, str, str, str]] = []

    def judge(label: str, base_v: float, cur_v: float, shown_base: str,
              shown_cur: str, tolerance: float) -> None:
        ratio = cur_v / base_v
        delta = f"{ratio - 1.0:+.1%}"
        line = f"{label}: {shown_cur} vs baseline {shown_base} ({delta})"
        if ratio > 1.0 + tolerance:
            regressions.append(line)
            verdict = "REGRESSION"
        elif ratio < 1.0 - tolerance:
            faster.append(line)
            verdict = "faster"
        else:
            print(f"  ok      {line}")
            verdict = "ok"
        md_rows.append((label, shown_base, shown_cur, delta, verdict))

    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            skipped.append(name)
            continue
        base_ns, cur_ns = base["real_time_ns"], cur["real_time_ns"]
        if base_ns <= 0:
            skipped.append(name)
            continue
        judge(name, base_ns, cur_ns, fmt_time(base_ns), fmt_time(cur_ns),
              args.tolerance)
        base_counters = base.get("counters", {})
        cur_counters = cur.get("counters", {})
        for cname in gated_counters:
            base_c = base_counters.get(cname)
            cur_c = cur_counters.get(cname)
            if base_c is None or cur_c is None or base_c <= 0:
                continue
            judge(f"{name} [{cname}]", base_c, cur_c, fmt_counter(base_c),
                  fmt_counter(cur_c), args.counter_tolerance)

    for name in skipped:
        print(f"  skipped {name} (not in the current run)")
    for line in faster:
        print(f"  FASTER  {line}")
    if faster:
        print(f"\n{len(faster)} quantitie(s) are more than the tolerance "
              "better than the baseline. If this improvement is intentional, "
              "rebaseline so the gate tracks the new level:\n"
              f"    bench/perf_gate.py --rebaseline {args.baseline} "
              + " ".join(args.current))

    if args.markdown_out:
        write_markdown(args.markdown_out, md_rows, args.tolerance,
                       args.counter_tolerance)

    if regressions:
        print(f"\nPERF REGRESSION: {len(regressions)} quantitie(s) are "
              f"beyond tolerance versus {args.baseline}:")
        for line in regressions:
            print(f"  SLOWER  {line}")
        print("\nIf the slowdown is intentional and accepted, rebaseline:\n"
              f"    bench/perf_gate.py --rebaseline {args.baseline} "
              + " ".join(args.current))
        return 1
    print(f"\nperf gate passed ({len(baseline) - len(skipped)} compared, "
          f"{len(skipped)} skipped, time tolerance ±{args.tolerance:.0%}, "
          f"counter tolerance ±{args.counter_tolerance:.0%})")
    return 0


def rebaseline(args: argparse.Namespace) -> int:
    merged = index_benchmarks(load_summary(args.baseline))
    for path in args.current:
        merged.update(index_benchmarks(load_summary(path)))
    out = {
        "schema_version": SCHEMA_VERSION,
        "suite": "baseline",
        "benchmarks": [merged[name] for name in sorted(merged)],
    }
    with open(args.baseline, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"rebaselined {args.baseline} with {len(merged)} benchmark(s)")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="bench/baseline.json",
                        help="committed reference summary")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative slowdown (default 0.25)")
    parser.add_argument("--counter-tolerance", type=float, default=0.10,
                        help="allowed relative counter growth (default 0.10)")
    parser.add_argument("--gate-counter", action="append", default=[],
                        metavar="NAME",
                        help="gate this counter too (repeatable; "
                             "higher = regression)")
    parser.add_argument("--markdown-out", default=None, metavar="PATH",
                        help="append a markdown delta table to this file "
                             "(CI: $GITHUB_STEP_SUMMARY)")
    parser.add_argument("--rebaseline", action="store_true",
                        help="merge the current summaries into the baseline "
                             "instead of gating")
    parser.add_argument("current", nargs="+",
                        help="BENCH_*.json summaries from the current build")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return rebaseline(args) if args.rebaseline else gate(args)


if __name__ == "__main__":
    sys.exit(main())
