// Per-slot record of a sweep: one JSONL line per clean slot.
//
// SweepEngine::run() writes the record at enable_journal()'s path
// (bench_catalogue: JOURNAL_catalogue.jsonl), truncating any earlier
// file, after its workers have joined: one line per completed,
// untainted distinct slot in (cell, rep) order. Failed and tainted
// slots get no line. The record is write-only: nothing in the harness
// reads it back; it is the per-seed source for paired comparisons.
//
// Each line carries the slot's identity next to its metrics:
//   * cell, rep — the slot's position in the sweep;
//   * cfg       — config_digest() of the cell's ScenarioConfig;
//   * seed      — replication_seed(base, rep), the run's seed;
//   * fp        — exp::fingerprint() of the metrics at write time.
//
// Doubles are written as C hexfloats ("%a") and u64 digests as
// fixed-width hex, so every value reads back bit-exactly.
#pragma once

#include <cstdint>
#include <string>

#include "exp/metrics.hpp"

namespace wmn::exp {

struct ScenarioConfig;  // exp/scenario.hpp

inline constexpr int kJournalVersion = 1;

// Digest over every ScenarioConfig field (placement, mobility, traffic
// incl. the rate envelope, protocol options, phy/mac, faults, timing,
// base seed, event budget). Pure and stable: the same config
// always digests the same, any field change digests differently.
[[nodiscard]] std::uint64_t config_digest(const ScenarioConfig& cfg);

// One journaled slot. metrics.seed carries the replication seed.
struct JournalRecord {
  std::uint64_t cell = 0;
  std::uint64_t rep = 0;
  std::uint64_t cfg_digest = 0;
  std::uint64_t fingerprint = 0;  // exp::fingerprint(metrics) at write time
  RunMetrics metrics;
};

// Serialize one record as a single JSON line (no trailing newline).
[[nodiscard]] std::string journal_line(const JournalRecord& rec);

}  // namespace wmn::exp
