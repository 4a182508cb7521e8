#!/usr/bin/env python3
"""Fixture harness for the wmn-* checks.

Each fixture is named <check>-<kind>.cpp with kind one of:
    trigger   every `// EXPECT: <check>` line must produce exactly that
              diagnostic (and nothing else). A trigger fixture with no
              EXPECT lines is an error — that is how a check that
              silently stops matching fails the suite.
    nolint    same shapes annotated with NOLINT; zero diagnostics.
    negative  sanctioned shapes; zero diagnostics.

Two engines run the same fixtures:
    lite      wmn_tidy_lite.py (stdlib Python; always available)
    plugin    clang-tidy --load=<libwmn-tidy.so> (CI, or any machine
              with clang dev packages)

Fixtures are restricted to the intersection of what both engines
detect, so the expectation files are engine-independent. The one
exception is wmn-stale-suppression, which only the lite engine
implements; the plugin engine skips its fixtures.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECT_RE = re.compile(r"//\s*EXPECT:\s*(?P<check>[\w-]+)")
DIAG_RE = re.compile(
    r"^(?P<path>.+?):(?P<line>\d+):(?P<col>\d+):\s+"
    r"(?:warning|error):\s+.*\[(?P<check>[\w.,-]+)\]\s*$")

KINDS = ("trigger", "nolint", "negative")
LITE_ONLY = {"wmn-stale-suppression"}


def parse_fixture_name(path: Path) -> tuple[str, str] | None:
    for kind in KINDS:
        suffix = f"-{kind}"
        if path.stem.endswith(suffix):
            return path.stem[: -len(suffix)], kind
    return None


def expected_diags(path: Path) -> set[tuple[int, str]]:
    out = set()
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        m = EXPECT_RE.search(line)
        if m:
            out.add((lineno, m.group("check")))
    return out


def run_engine(engine: str, fixture: Path, check: str,
               args: argparse.Namespace) -> tuple[set[tuple[int, str]], str]:
    if engine == "lite":
        cmd = [sys.executable, str(args.lite_script),
               f"--checks={check}", str(fixture)]
    else:
        cmd = [args.clang_tidy, f"--load={args.plugin}",
               f"--checks=-*,{check}", "--quiet", str(fixture),
               "--", "-std=c++20"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    diags = set()
    for line in proc.stdout.splitlines():
        m = DIAG_RE.match(line)
        if not m:
            continue
        # clang-tidy may tag a line with several checks; keep ours.
        if check in m.group("check").split(","):
            diags.add((int(m.group("line")), check))
    return diags, proc.stdout + proc.stderr


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--engine", choices=("lite", "plugin"), required=True)
    ap.add_argument("--fixtures", type=Path, default=HERE / "test/fixtures")
    ap.add_argument("--lite-script", type=Path,
                    default=HERE / "wmn_tidy_lite.py")
    ap.add_argument("--clang-tidy", default="clang-tidy")
    ap.add_argument("--plugin", help="path to libwmn-tidy.so (plugin engine)")
    ap.add_argument("--only", help="run only fixtures for this check")
    args = ap.parse_args(argv)

    if args.engine == "plugin" and not args.plugin:
        print("error: --plugin is required with --engine=plugin",
              file=sys.stderr)
        return 2

    fixtures = sorted(args.fixtures.glob("*.cpp"))
    if not fixtures:
        print(f"error: no fixtures under {args.fixtures}", file=sys.stderr)
        return 2

    failures = 0
    ran = 0
    for fixture in fixtures:
        parsed = parse_fixture_name(fixture)
        if parsed is None:
            print(f"FAIL {fixture.name}: unrecognised fixture name")
            failures += 1
            continue
        check, kind = parsed
        if args.only and check != args.only:
            continue
        if args.engine == "plugin" and check in LITE_ONLY:
            print(f"SKIP {fixture.name}: lite-engine check")
            continue
        ran += 1

        expected = expected_diags(fixture)
        actual, raw = run_engine(args.engine, fixture, check, args)

        if kind == "trigger" and not expected:
            print(f"FAIL {fixture.name}: trigger fixture has no EXPECT lines")
            failures += 1
            continue
        if kind in ("nolint", "negative") and expected:
            print(f"FAIL {fixture.name}: {kind} fixture must not carry "
                  "EXPECT lines")
            failures += 1
            continue

        if actual == expected:
            print(f"PASS {fixture.name} ({len(actual)} diagnostics)")
            continue

        failures += 1
        print(f"FAIL {fixture.name}")
        for line, chk in sorted(expected - actual):
            print(f"  missing: line {line} [{chk}]")
        for line, chk in sorted(actual - expected):
            print(f"  unexpected: line {line} [{chk}]")
        if raw.strip():
            print("  engine output:")
            for ln in raw.strip().splitlines():
                print(f"    {ln}")

    if ran == 0:
        print("error: no fixtures matched the filter", file=sys.stderr)
        return 2
    print(f"{ran - failures}/{ran} fixtures passed ({args.engine} engine)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
