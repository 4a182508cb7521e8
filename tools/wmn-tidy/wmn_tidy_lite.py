#!/usr/bin/env python3
"""Heuristic (regex/lexical) engine for the wmn-* checks.

The real engine is the clang-tidy plugin in src/ — CI builds and runs
it against full ASTs. This file re-implements the same four checks on
a lexical level with only the Python stdlib, so the fixture tests and
the baseline gate also run on machines with no clang tooling at all
(the default dev container ships none). Fixtures are deliberately
restricted to the intersection of what both engines detect; this file
is NOT a general-purpose linter.

Output format matches clang-tidy:
    path:line:col: warning: message [check-name]

Checks:
    wmn-no-raw-assert       assert()/abort()/_Exit/quick_exit/NDEBUG
    wmn-nondeterminism      std::random_device, rand/srand, time(),
                            getenv(), std::chrono wall clocks,
                            unordered containers keyed by pointers,
                            raw std::thread/std::mutex outside
                            src/exp/
    wmn-unordered-iteration loops over unordered_{map,set,...}
    wmn-check-side-effects  mutation inside WMN_CHECK* conditions
    wmn-stale-suppression   a NOLINT/NOLINTNEXTLINE(wmn-...) entry that
                            suppresses no finding (lite engine only)

NOLINT / NOLINTNEXTLINE with an optional (check-list) are honoured the
same way clang-tidy honours them, including globs like wmn-*.

wmn-stale-suppression has no plugin twin: clang-tidy filters NOLINT
comments after every check has reported, so no single check can see
which comments suppressed something. Here all four checks run on each
file and every wmn-* glob records whether it matched a finding.
"""

from __future__ import annotations

import argparse
import fnmatch
import re
import sys
from pathlib import Path

ALL_CHECKS = (
    "wmn-no-raw-assert",
    "wmn-nondeterminism",
    "wmn-unordered-iteration",
    "wmn-check-side-effects",
    "wmn-stale-suppression",
)

UNORDERED_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\b")
# `std::unordered_map<K, V> name` / `... name{` / `... name;` — collects
# member/local names typed as unordered containers. Template args may
# nest one level of <>.
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<"
    r"(?P<args>(?:[^<>]|<[^<>]*>)*)>\s*"
    r"(?P<name>\w+)\s*(?:[;={(,)]|$)")

SINK_RE = re.compile(
    r"\b(?:schedule|send|transmit|enqueue|broadcast|deliver|emit|notify|fire)"
    r"\w*\s*\(")

WALL_CLOCK_RE = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\s*\(")

RAW_THREADING_RE = re.compile(
    r"\bstd\s*::\s*(?P<sym>thread|jthread|mutex|timed_mutex|"
    r"recursive_mutex|recursive_timed_mutex|shared_mutex|"
    r"shared_timed_mutex|condition_variable(?:_any)?)\b")

# The one place allowed to hold raw threading primitives: the sweep
# concurrency layer (exp::SweepEngine and its worker threads). Matches the
# plugin's isSanctionedThreadingFile.
SANCTIONED_THREADING_RE = re.compile(r"src[/\\]exp[/\\]")

LIBC_ENTROPY_RE = re.compile(
    r"(?:\bstd\s*::\s*|(?<![\w:.>]))(?P<fn>rand|srand|time|getenv)\s*\(")

TERMINATE_RE = re.compile(
    r"(?:\bstd\s*::\s*|(?<![\w:.>]))(?P<fn>abort|_Exit|quick_exit)\s*\(")

# assert( but not static_assert( or foo_assert(
ASSERT_RE = re.compile(r"(?<![\w])assert\s*\(")

# Definite side effects only (mirrors HasSideEffects with
# IncludePossibleEffects=false): ++/--, plain assignment, compound
# assignment. Plain calls intentionally pass.
SIDE_EFFECT_RE = re.compile(
    r"\+\+|--"
    r"|[+\-*/%&|^]="           # compound assignment
    r"|<<=|>>="
    r"|(?<![=!<>+\-*/%&|^<>])=(?![=])")  # plain =, not ==/!=/<=/>=/op=

NOLINT_RE = re.compile(r"//\s*NOLINT(?P<next>NEXTLINE)?"
                       r"(?:\((?P<list>[^)]*)\))?")


def strip_comments_and_strings(src: str) -> str:
    """Replace comment/string/char contents with spaces, keeping
    newlines and column positions intact so line:col stays accurate."""
    out = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        nxt = src[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = src.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = src.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = src[i:j]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if src[j] == "\\":
                    j += 2
                    continue
                if src[j] == quote:
                    j += 1
                    break
                if src[j] == "\n":
                    # Unterminated on this line (apostrophe in code
                    # context, digit separator): never eat the newline
                    # or every later line number shifts.
                    break
                j += 1
            out.append(" " * (j - i))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Nolint:
    """One NOLINT comment: where it sits, the line it covers, its check
    globs (None = every check) and the globs that matched a finding."""

    def __init__(self, line: int, target: int, globs: list[str] | None):
        self.line, self.target, self.globs = line, target, globs
        self.used: set[str] = set()


class Suppressions:
    """NOLINT bookkeeping, computed from the ORIGINAL source (comments
    survive there)."""

    def __init__(self, original: str):
        self.comments: list[Nolint] = []
        self.by_line: dict[int, list[Nolint]] = {}
        for lineno, line in enumerate(original.splitlines(), start=1):
            m = NOLINT_RE.search(line)
            if not m:
                continue
            target = lineno + 1 if m.group("next") else lineno
            checks = m.group("list")
            globs = None if checks is None else \
                [c.strip() for c in checks.split(",") if c.strip()]
            nolint = Nolint(lineno, target, globs)
            self.comments.append(nolint)
            self.by_line.setdefault(target, []).append(nolint)

    def suppressed(self, line: int, check: str) -> bool:
        """Whether a finding of `check` on `line` is suppressed; call it
        only for real findings, since it records which globs were used."""
        hit = False
        for nolint in self.by_line.get(line, ()):
            if nolint.globs is None:
                hit = True
                continue
            for g in nolint.globs:
                if fnmatch.fnmatchcase(check, g):
                    nolint.used.add(g)
                    hit = True
        return hit


class Finding:
    def __init__(self, path: Path, line: int, col: int, msg: str, check: str):
        self.path, self.line, self.col = path, line, col
        self.msg, self.check = msg, check

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: warning: "
                f"{self.msg} [{self.check}]")


def find_matching_paren(text: str, open_idx: int) -> int:
    """Index of the ')' matching the '(' at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def split_top_level_commas(text: str, track_angles: bool = False) -> list[str]:
    """Split on commas not nested in brackets. track_angles=True treats
    <> as nesting (template argument lists); leave it off for macro
    arguments, where `<` is usually a comparison and the preprocessor
    itself only respects parentheses."""
    parts, depth, depth_angle, start = [], 0, 0, 0
    for i, c in enumerate(text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif track_angles and c == "<":
            depth_angle += 1
        elif track_angles and c == ">":
            depth_angle = max(0, depth_angle - 1)
        elif c == "," and depth == 0 and depth_angle == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def loop_body_lines(lines: list[str], header_line: int) -> range:
    """Lines (1-based, inclusive range) of the loop body that starts at
    header_line. Brace-balanced; a braceless body is the next line."""
    text = "\n".join(lines[header_line - 1:])
    brace = text.find("{")
    semi = text.find(";")
    # find the ')' closing the loop header first; braces before it
    # (lambda args etc.) don't open the body
    paren = text.find("(")
    if paren != -1:
        close = find_matching_paren(text, paren)
        if close != -1:
            brace = text.find("{", close)
            semi = text.find(";", close)
    if brace == -1 or (semi != -1 and semi < brace):
        return range(header_line + 1, header_line + 2)
    depth, i = 0, brace
    while i < len(text):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                break
        i += 1
    first = header_line + text[:brace].count("\n")
    last = header_line + text[:i].count("\n")
    return range(first, last + 1)


def gather_unordered_names(stripped_sources: list[str]) -> set[str]:
    """Variable/member names declared as unordered containers, pooled
    across every input file so member uses in .cpp files resolve even
    when the declaration lives in a header."""
    names: set[str] = set()
    for src in stripped_sources:
        flat = re.sub(r"\s+", " ", src)
        for m in UNORDERED_DECL_RE.finditer(flat):
            name = m.group("name")
            if name and not name[0].isdigit():
                names.add(name)
    return names


def check_no_raw_assert(path, lines, supp, findings):
    check = "wmn-no-raw-assert"
    for ln, line in enumerate(lines, start=1):
        code = line
        pp = code.lstrip()
        if pp.startswith("#"):
            if re.search(r"\bNDEBUG\b", pp) and re.match(
                    r"#\s*(?:if|ifdef|ifndef|elif)\b", pp):
                if not supp.suppressed(ln, check):
                    findings.append(Finding(
                        path, ln, code.index("#") + 1,
                        "NDEBUG-conditional code forks behaviour between "
                        "build types; use WMN_CHECK*, which is live in all "
                        "builds", check))
            continue  # no assert()/abort() inside other directives
        m = ASSERT_RE.search(code)
        if m and not supp.suppressed(ln, check):
            findings.append(Finding(
                path, ln, m.start() + 1,
                "raw assert() compiles out of release builds; use WMN_CHECK* "
                "(core/check.hpp) so the invariant stays live in every build "
                "type", check))
        m = TERMINATE_RE.search(code)
        if m and not supp.suppressed(ln, check):
            findings.append(Finding(
                path, ln, m.start() + 1,
                f"direct {m.group('fn')}() bypasses the WMN_CHECK policy "
                "layer; invariant failures must go through "
                "WMN_CHECK*/WMN_UNREACHABLE", check))


def check_nondeterminism(path, lines, supp, findings):
    check = "wmn-nondeterminism"
    threading_sanctioned = bool(SANCTIONED_THREADING_RE.search(str(path)))
    for ln, line in enumerate(lines, start=1):
        if line.lstrip().startswith("#"):
            continue
        m = RAW_THREADING_RE.search(line)
        if m and not threading_sanctioned and not supp.suppressed(ln, check):
            findings.append(Finding(
                path, ln, m.start() + 1,
                f"raw std::{m.group('sym')} outside the sanctioned "
                "concurrency layer (src/exp/): ad-hoc threads can reorder "
                "simulation events; use exp::SweepEngine across runs",
                check))
        m = re.search(r"\bstd\s*::\s*random_device\b", line)
        if m and not supp.suppressed(ln, check):
            findings.append(Finding(
                path, ln, m.start() + 1,
                "std::random_device draws hardware entropy; all randomness "
                "must come from the seeded sim::RngStream", check))
        m = LIBC_ENTROPY_RE.search(line)
        if m and not supp.suppressed(ln, check):
            findings.append(Finding(
                path, ln, m.start() + 1,
                f"{m.group('fn')}() injects host state into simulation "
                "results; derive everything from (config, seed) instead",
                check))
        m = WALL_CLOCK_RE.search(line)
        if m and not supp.suppressed(ln, check):
            findings.append(Finding(
                path, ln, m.start() + 1,
                "wall-clock reads are invisible to the seed; use "
                "sim::Simulator time, or NOLINT with a justification if this "
                "measures host performance only", check))
        m = UNORDERED_DECL_RE.search(re.sub(r"\s+", " ", line))
        if m:
            first_arg = split_top_level_commas(m.group("args"),
                                               track_angles=True)[0]
            if first_arg.rstrip().endswith("*") and \
                    not supp.suppressed(ln, check):
                findings.append(Finding(
                    path, ln, 1,
                    "unordered container keyed by pointer values: iteration "
                    "order would follow the allocator, not the seed; key by "
                    "a stable id", check))


def check_unordered_iteration(path, lines, supp, findings, unordered_names):
    check = "wmn-unordered-iteration"
    names_alt = "|".join(re.escape(n) for n in sorted(unordered_names)) \
        if unordered_names else r"(?!x)x"
    # range-for over a known unordered variable/member, or over an
    # inline unordered_* expression
    range_for = re.compile(
        r"\bfor\s*\(\s*(?:\[\[[^\]]*\]\]\s*)?[^;()]*?:\s*"
        r"(?:\w+(?:\.|->))*(?:" + names_alt + r")\s*\)")
    range_for_inline = re.compile(
        r"\bfor\s*\([^;()]*?:\s*[^;]*\bunordered_"
        r"(?:map|set|multimap|multiset)\b")
    iter_for = re.compile(
        r"\bfor\s*\(\s*(?:auto|[\w:<>,\s]+?)\s+\w+\s*=\s*"
        r"(?:\w+(?:\.|->))*(?:" + names_alt + r")\s*\.\s*(?:c?begin)\s*\(")
    for ln, line in enumerate(lines, start=1):
        if line.lstrip().startswith("#"):
            continue
        m = range_for.search(line) or range_for_inline.search(line) \
            or iter_for.search(line)
        if not m or supp.suppressed(ln, check):
            continue
        body = loop_body_lines(lines, ln)
        calls_sink = any(
            SINK_RE.search(lines[i - 1])
            for i in body if 0 < i <= len(lines))
        if calls_sink:
            msg = ("loop over an unordered container calls into the "
                   "event/send path: bucket order would decide event order; "
                   "iterate a sorted or insertion-ordered copy instead")
        else:
            msg = ("iteration order over an unordered container follows "
                   "hash-bucket layout (reserve/rehash history); sort what "
                   "escapes, or NOLINT with a written commutativity argument")
        findings.append(Finding(path, ln, m.start() + 1, msg, check))


def check_side_effects(path, lines, supp, findings):
    check = "wmn-check-side-effects"
    text = "\n".join(lines)
    for m in re.finditer(r"\bWMN_CHECK(?:_(?:EQ|NE|GE|GT|LE|LT|NOTNULL))?"
                         r"\s*(\()", text):
        open_idx = m.start(1)
        close_idx = find_matching_paren(text, open_idx)
        if close_idx == -1:
            continue
        ln = text[:m.start()].count("\n") + 1
        # Skip the macro definitions themselves.
        if lines[ln - 1].lstrip().startswith("#"):
            continue
        args = split_top_level_commas(text[open_idx + 1:close_idx])
        if len(args) < 2:
            continue
        # Everything except the trailing message is user condition.
        for arg in args[:-1]:
            if SIDE_EFFECT_RE.search(arg):
                if supp.suppressed(ln, check):
                    break
                findings.append(Finding(
                    path, ln, m.start() - text.rfind("\n", 0, m.start()),
                    "WMN_CHECK condition has side effects; under "
                    "kLogAndCount the check continues after failure, so "
                    "mutation here makes state depend on the active check "
                    "policy", check))
                break


def check_stale_suppressions(path, supp, findings):
    """Runs after the four checks: a wmn-* glob that matched none of
    their findings suppresses nothing."""
    for nolint in supp.comments:
        for g in nolint.globs or ():
            if g.startswith("wmn-") and g not in nolint.used:
                findings.append(Finding(
                    path, nolint.line, 1,
                    f"NOLINT entry '{g}' suppresses no finding on line "
                    f"{nolint.target}; delete it so it cannot silence "
                    "a future one", "wmn-stale-suppression"))


def lint_files(paths: list[Path], enabled: list[str]) -> list[Finding]:
    originals = {p: p.read_text(encoding="utf-8", errors="replace")
                 for p in paths}
    stripped = {p: strip_comments_and_strings(src)
                for p, src in originals.items()}
    unordered_names = gather_unordered_names(list(stripped.values()))
    stale = "wmn-stale-suppression" in enabled
    findings: list[Finding] = []
    for p in paths:
        supp = Suppressions(originals[p])
        lines = stripped[p].splitlines()
        # Judging staleness needs every check's findings; keep only the
        # enabled ones.
        found: list[Finding] = []
        check_no_raw_assert(p, lines, supp, found)
        check_nondeterminism(p, lines, supp, found)
        check_unordered_iteration(p, lines, supp, found, unordered_names)
        check_side_effects(p, lines, supp, found)
        if stale:
            check_stale_suppressions(p, supp, found)
        findings.extend(f for f in found if f.check in enabled)
    findings.sort(key=lambda f: (str(f.path), f.line, f.col, f.check))
    return findings


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", type=Path)
    ap.add_argument("--checks", default="wmn-*",
                    help="comma-separated check globs (default: wmn-*)")
    args = ap.parse_args(argv)

    globs = [g.strip() for g in args.checks.split(",") if g.strip()]
    enabled = [c for c in ALL_CHECKS
               if any(fnmatch.fnmatchcase(c, g) for g in globs)]

    missing = [p for p in args.files if not p.is_file()]
    if missing:
        for p in missing:
            print(f"error: no such file: {p}", file=sys.stderr)
        return 2

    findings = lint_files(args.files, enabled)
    for f in findings:
        print(f)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
