#!/usr/bin/env python3
"""Baseline gate for the wmn-* checks over the production tree.

Runs an engine (lite or plugin) over src/ and bench/, aggregates
findings into per-file-per-check counts, and compares against the
committed baseline (baseline.txt). The rules:

  * A file/check pair above its baselined count (or absent from the
    baseline) FAILS the gate — new violations are never grandfathered.
  * A pair below its baselined count prints a shrink notice: run with
    --update and commit the smaller baseline. The baseline may only
    shrink; it never grows.

The baseline is currently EMPTY: every finding the checks surface in
src/ and bench/ was either fixed or NOLINT-annotated with a written
justification in the PR that introduced this tool. Keep it that way.

Baseline format (one entry per line, '#' comments allowed):
    <repo-relative-path> <check-name> <count>
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent

DIAG_RE = re.compile(
    r"^(?P<path>.+?):(?P<line>\d+):(?P<col>\d+):\s+"
    r"(?:warning|error):\s+.*\[(?P<check>[\w.,-]+)\]\s*$")

SCAN_DIRS = ("src", "bench")
EXTS = (".cpp", ".hpp", ".h")


def production_files() -> list[Path]:
    files: list[Path] = []
    for d in SCAN_DIRS:
        root = REPO / d
        if root.is_dir():
            files.extend(p for p in sorted(root.rglob("*"))
                         if p.suffix in EXTS and p.is_file())
    return files


def load_baseline(path: Path) -> Counter:
    baseline: Counter = Counter()
    if not path.is_file():
        return baseline
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or not parts[2].isdigit():
            print(f"error: {path}:{lineno}: malformed baseline entry: "
                  f"{line!r}", file=sys.stderr)
            sys.exit(2)
        baseline[(parts[0], parts[1])] = int(parts[2])
    return baseline


def collect_findings(engine: str, files: list[Path],
                     args: argparse.Namespace) -> Counter:
    if engine == "lite":
        cmd = [sys.executable, str(args.lite_script), "--checks=wmn-*",
               *map(str, files)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        output = proc.stdout
    else:
        # Only .cpp files are tidy translation units; headers are
        # covered through --header-filter.
        tus = [f for f in files if f.suffix == ".cpp"]
        cmd = [args.clang_tidy, f"--load={args.plugin}",
               "--checks=-*,wmn-*", "--quiet",
               "--header-filter=.*/(src|bench)/.*"]
        if args.build_dir:
            cmd.append(f"-p={args.build_dir}")
        cmd.extend(map(str, tus))
        proc = subprocess.run(cmd, capture_output=True, text=True)
        output = proc.stdout

    # Dedupe by (file, line, check): headers included from several TUs
    # repeat their diagnostics.
    seen: set[tuple[str, int, str]] = set()
    counts: Counter = Counter()
    for line in output.splitlines():
        m = DIAG_RE.match(line)
        if not m:
            continue
        try:
            rel = str(Path(m.group("path")).resolve().relative_to(REPO))
        except ValueError:
            continue  # diagnostics outside the repo (system headers)
        for check in m.group("check").split(","):
            if not check.startswith("wmn-"):
                continue
            key = (rel, int(m.group("line")), check)
            if key in seen:
                continue
            seen.add(key)
            counts[(rel, check)] += 1
    return counts


def write_baseline(path: Path, counts: Counter) -> None:
    lines = [
        "# wmn-tidy baseline: grandfathered findings, one",
        "# '<path> <check> <count>' entry per line. Shrink-only — see",
        "# check_baseline.py. Currently empty by design.",
    ]
    for (rel, check), n in sorted(counts.items()):
        lines.append(f"{rel} {check} {n}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--engine", choices=("lite", "plugin"), required=True)
    ap.add_argument("--baseline", type=Path, default=HERE / "baseline.txt")
    ap.add_argument("--lite-script", type=Path,
                    default=HERE / "wmn_tidy_lite.py")
    ap.add_argument("--clang-tidy", default="clang-tidy")
    ap.add_argument("--plugin", help="path to libwmn-tidy.so")
    ap.add_argument("--build-dir",
                    help="build dir with compile_commands.json (plugin)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from current findings")
    args = ap.parse_args(argv)

    if args.engine == "plugin" and not args.plugin:
        print("error: --plugin is required with --engine=plugin",
              file=sys.stderr)
        return 2

    files = production_files()
    if not files:
        print("error: nothing to scan under src/ or bench/", file=sys.stderr)
        return 2

    counts = collect_findings(args.engine, files, args)

    if args.update:
        write_baseline(args.baseline, counts)
        print(f"baseline rewritten with {sum(counts.values())} findings "
              f"across {len(counts)} file/check pairs")
        return 0

    baseline = load_baseline(args.baseline)
    new, shrunk = [], []
    for key, n in sorted(counts.items()):
        allowed = baseline.get(key, 0)
        if n > allowed:
            new.append((key, n, allowed))
        elif n < allowed:
            shrunk.append((key, n, allowed))
    for key, allowed in sorted(baseline.items()):
        if key not in counts and allowed > 0:
            shrunk.append((key, 0, allowed))

    for (rel, check), n, allowed in shrunk:
        print(f"note: {rel} [{check}] improved: {allowed} -> {n}; run "
              "check_baseline.py --update and commit the smaller baseline")
    if new:
        for (rel, check), n, allowed in new:
            fix = ("delete the NOLINT entry" if check == "wmn-stale-suppression"
                   else "fix it or NOLINT with a written justification")
            print(f"FAIL: {rel} [{check}] has {n} finding(s), baseline "
                  f"allows {allowed} — {fix} (see docs/TOOLING.md)")
        return 1

    print(f"baseline gate clean: {sum(counts.values())} finding(s), all "
          "within baseline" if counts else
          "baseline gate clean: zero findings")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
