#!/usr/bin/env python3
"""Unit tests for bench/perf_gate.py (time and counter gating).

Run directly or via ctest (registered in tests/CMakeLists.txt). Uses
only the standard library; perf_gate is imported from bench/ relative
to this file, so the test is location-independent.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys
import tempfile
import unittest

_GATE_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "perf_gate.py"
_SPEC = importlib.util.spec_from_file_location("perf_gate", _GATE_PATH)
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)


def summary(benchmarks: list[dict]) -> dict:
    return {
        "schema_version": perf_gate.SCHEMA_VERSION,
        "suite": "test",
        "benchmarks": benchmarks,
    }


def bench(name: str, real_time_ns: float, counters: dict | None = None) -> dict:
    return {
        "name": name,
        "iterations": 1,
        "real_time_ns": real_time_ns,
        "cpu_time_ns": real_time_ns,
        "counters": counters or {},
    }


class GateHarness(unittest.TestCase):
    def setUp(self) -> None:
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)
        self.root = pathlib.Path(self._dir.name)

    def write(self, name: str, data: dict) -> str:
        path = self.root / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def run_gate(self, baseline: dict, current: dict,
                 extra_args: list[str] | None = None) -> int:
        base = self.write("baseline.json", baseline)
        cur = self.write("current.json", current)
        return perf_gate.main(["--baseline", base, *(extra_args or []), cur])


class TimeGate(GateHarness):
    def test_within_tolerance_passes(self) -> None:
        rc = self.run_gate(summary([bench("BM_A", 100.0)]),
                           summary([bench("BM_A", 110.0)]))
        self.assertEqual(rc, 0)

    def test_time_regression_fails(self) -> None:
        rc = self.run_gate(summary([bench("BM_A", 100.0)]),
                           summary([bench("BM_A", 200.0)]))
        self.assertEqual(rc, 1)

    def test_faster_than_baseline_passes(self) -> None:
        rc = self.run_gate(summary([bench("BM_A", 100.0)]),
                           summary([bench("BM_A", 10.0)]))
        self.assertEqual(rc, 0)

    def test_missing_benchmark_is_skipped(self) -> None:
        rc = self.run_gate(summary([bench("BM_A", 100.0), bench("BM_B", 50.0)]),
                           summary([bench("BM_A", 100.0)]))
        self.assertEqual(rc, 0)


class CounterGate(GateHarness):
    def test_counter_regression_fails(self) -> None:
        rc = self.run_gate(
            summary([bench("BM_A", 100.0, {"bytes_per_node": 1000.0})]),
            summary([bench("BM_A", 100.0, {"bytes_per_node": 1200.0})]))
        self.assertEqual(rc, 1)

    def test_counter_within_tolerance_passes(self) -> None:
        rc = self.run_gate(
            summary([bench("BM_A", 100.0, {"bytes_per_node": 1000.0})]),
            summary([bench("BM_A", 100.0, {"bytes_per_node": 1050.0})]))
        self.assertEqual(rc, 0)

    def test_counter_only_in_current_is_skipped(self) -> None:
        # A counter added by a new commit must not fail the gate until
        # it is rebaselined in.
        rc = self.run_gate(
            summary([bench("BM_A", 100.0)]),
            summary([bench("BM_A", 100.0, {"bytes_per_node": 9e9})]))
        self.assertEqual(rc, 0)

    def test_ungated_counter_ignored(self) -> None:
        rc = self.run_gate(
            summary([bench("BM_A", 100.0, {"events/s": 100.0})]),
            summary([bench("BM_A", 100.0, {"events/s": 1.0}),]))
        self.assertEqual(rc, 0)

    def test_extra_gated_counter_via_flag(self) -> None:
        rc = self.run_gate(
            summary([bench("BM_A", 100.0, {"sim_events": 100.0})]),
            summary([bench("BM_A", 100.0, {"sim_events": 300.0})]),
            extra_args=["--gate-counter", "sim_events"])
        self.assertEqual(rc, 1)

    def test_counter_tolerance_flag(self) -> None:
        rc = self.run_gate(
            summary([bench("BM_A", 100.0, {"bytes_per_node": 1000.0})]),
            summary([bench("BM_A", 100.0, {"bytes_per_node": 1200.0})]),
            extra_args=["--counter-tolerance", "0.5"])
        self.assertEqual(rc, 0)


class Markdown(GateHarness):
    def test_markdown_table_written(self) -> None:
        md = self.root / "summary.md"
        rc = self.run_gate(
            summary([bench("BM_A", 100.0, {"bytes_per_node": 1000.0})]),
            summary([bench("BM_A", 120.0, {"bytes_per_node": 1300.0})]),
            extra_args=["--markdown-out", str(md)])
        self.assertEqual(rc, 1)  # counter regressed
        text = md.read_text(encoding="utf-8")
        self.assertIn("| benchmark | baseline | current | delta | verdict |", text)
        self.assertIn("| BM_A |", text)
        self.assertIn("| BM_A [bytes_per_node] |", text)
        self.assertIn("REGRESSION", text)

    def test_markdown_appends(self) -> None:
        md = self.root / "summary.md"
        md.write_text("# existing step summary\n", encoding="utf-8")
        self.run_gate(summary([bench("BM_A", 100.0)]),
                      summary([bench("BM_A", 100.0)]),
                      extra_args=["--markdown-out", str(md)])
        text = md.read_text(encoding="utf-8")
        self.assertTrue(text.startswith("# existing step summary\n"))
        self.assertIn("Perf gate: baseline vs current", text)


class Rebaseline(GateHarness):
    def test_rebaseline_merges_counters(self) -> None:
        base = self.write("baseline.json", summary([bench("BM_A", 100.0)]))
        cur = self.write(
            "current.json",
            summary([bench("BM_A", 90.0, {"bytes_per_node": 1000.0}),
                     bench("BM_B", 50.0)]))
        rc = perf_gate.main(["--baseline", base, "--rebaseline", cur])
        self.assertEqual(rc, 0)
        merged = json.loads(pathlib.Path(base).read_text(encoding="utf-8"))
        by_name = {b["name"]: b for b in merged["benchmarks"]}
        self.assertEqual(by_name["BM_A"]["real_time_ns"], 90.0)
        self.assertEqual(by_name["BM_A"]["counters"]["bytes_per_node"], 1000.0)
        self.assertIn("BM_B", by_name)


if __name__ == "__main__":
    unittest.main()
