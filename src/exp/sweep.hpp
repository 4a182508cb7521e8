// Replication and sweep helpers used by every bench binary.
//
// The sweep engine flattens an entire experiment — every (point ×
// protocol) cell times every replication — into one slot list that
// run() drains with its own workers, each taking the next slot from
// one atomic index. There is no barrier between points: a worker
// finishing the last replication of point 3 immediately picks up
// point 4. Workers are crash-safe: a replication that fails fills its
// RepOutcome slot with a structured FailureKind instead of terminating
// the binary, and the sweep completes with the failure reported
// alongside the results. A failed slot is never re-run: the same
// config and seed replay the same failure.
//
// One per-run guard and one output, both off by default:
//   * ScenarioConfig::event_budget — deterministic per-run guard; a
//                           livelocked config fails kEventBudgetExhausted
//                           identically on every host.
//   * enable_journal      — per-slot record: run() writes one JSONL line
//                           per clean slot, in slot order, once the
//                           workers have joined (see exp/journal.hpp).
//
// Rep r of every cell runs at replication_seed(cfg.seed, r) — a pure
// SplitMix64 function of the config's base seed and r — so results are
// bit-identical regardless of thread count or task execution order, and
// cells that differ only in protocol or a variant knob share their seeds
// (common random numbers: each contrast compares equal topologies and
// flows). A config queued twice is one cell, so each distinct
// (config, rep) runs once.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <span>
#include <thread>
#include <vector>

#include "exp/failure.hpp"
#include "exp/metrics.hpp"
#include "exp/scenario.hpp"
#include "stats/confidence.hpp"

namespace wmn::exp {

// Number of worker threads to use by default: hardware concurrency,
// floored at 1.
[[nodiscard]] inline unsigned default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

// SplitMix64 finalizer: the standard 64-bit bijective mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// The seed of replication `rep` of a config with base seed `base_seed`.
// Pure function of its arguments: the same sweep produces the same
// seeds whether it runs on 1 thread or 64, in any task order, and
// whatever other cells are queued with it. Two mixing rounds keep
// distinct (base, rep) pairs from colliding even for adjacent base
// seeds.
[[nodiscard]] constexpr std::uint64_t replication_seed(std::uint64_t base_seed,
                                                       std::uint64_t rep) {
  return splitmix64(splitmix64(base_seed) + rep);
}

// One replication slot of a sweep cell. ok() means clean metrics;
// otherwise `kind` says exactly how the slot failed (kCheckTaint keeps
// its metrics for inspection but they are excluded from statistics).
struct RepOutcome {
  std::uint64_t seed = 0;
  std::optional<RunMetrics> metrics;
  std::string error;                    // empty iff ok()
  FailureKind kind = FailureKind::kNone;

  [[nodiscard]] bool ok() const { return metrics.has_value() && error.empty(); }
};

// Flattened sweep over its own workers. Usage (every bench binary):
//   SweepEngine sweep(env.threads);
//   ... add_cell() for every point × protocol ...   (phase 1)
//   ... enable_journal() ...
//   sweep.run();                                    (drain, once)
//   ... cell_metrics(id) to render rows ...         (phase 2)
class SweepEngine {
 public:
  explicit SweepEngine(unsigned threads);

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;
  virtual ~SweepEngine() = default;

  // Enqueue one sweep cell: n_reps replications of cfg. The returned
  // id indexes cell()/cell_metrics() after run(). A cfg whose
  // config_digest is already queued returns that cell's id (n_reps must
  // match, and the first label stays). The label (e.g. the protocol
  // name) makes failure reports readable.
  std::size_t add_cell(const ScenarioConfig& cfg, std::size_t n_reps,
                       std::string label = {});

  // Per-slot record at `path`. run() opens it truncating before any
  // slot runs, so an unwritable path fails the sweep up front and an
  // earlier campaign's lines never survive into this one; the clean
  // slots are written in (cell, rep) order after the workers join.
  void enable_journal(std::string path);

  // Drain every queued replication: min(threads, slots)
  // workers take slots from one atomic index; with one worker the
  // slots run inline, in index order, on the calling thread. Call once.
  // Throws std::runtime_error when the record cannot be opened or
  // written.
  void run();

  // All replication slots of a cell, in replication order.
  [[nodiscard]] std::span<const RepOutcome> cell(std::size_t id) const;

  // Metrics of the cell's *successful* replications, in order.
  [[nodiscard]] std::vector<RunMetrics> cell_metrics(std::size_t id) const;

  [[nodiscard]] std::size_t task_count() const;
  [[nodiscard]] std::size_t failed_count() const;

  // Slot counts per FailureKind (index 0, kNone, counts clean slots).
  [[nodiscard]] FailureCounts failure_counts() const;

  // Human-readable report of every failed slot; empty string if clean.
  [[nodiscard]] std::string failure_report() const;

 protected:
  // One replication: build, run, aggregate. Virtual so tests can
  // substitute bodies that throw or taint without a full Scenario.
  [[nodiscard]] virtual RunMetrics execute(const ScenarioConfig& cfg);

 private:
  struct Cell {
    std::string label;
    ScenarioConfig cfg;
    std::uint64_t digest = 0;  // config_digest(cfg), the record's "cfg"
    std::size_t first = 0;     // index of rep 0 in outcomes_
    std::size_t n_reps = 0;
  };

  void run_slot(std::size_t cell_id, std::size_t rep);

  unsigned threads_;
  std::vector<Cell> cells_;
  std::vector<RepOutcome> outcomes_;  // flattened, cell-major
  bool ran_ = false;
  std::string journal_path_;  // empty: no per-slot record
};

// Run `n_reps` independent replications of `base` across `threads`
// workers, seeded replication_seed(base.seed, i).
// Strict wrapper over SweepEngine: throws std::runtime_error with the
// failure report if any replication failed (benches that want partial
// results use SweepEngine directly).
[[nodiscard]] std::vector<RunMetrics> run_replications(
    const ScenarioConfig& base, std::size_t n_reps,
    unsigned threads = default_thread_count());

// Extract one scalar from each replication.
using MetricFn = std::function<double(const RunMetrics&)>;
[[nodiscard]] std::vector<double> extract(std::span<const RunMetrics> reps,
                                          const MetricFn& fn);

// 95% CI of a scalar across replications.
[[nodiscard]] stats::ConfidenceInterval ci(std::span<const RunMetrics> reps,
                                           const MetricFn& fn);

// "mean +-hw" rendering used in result tables (CI shown from 3 reps
// up; "n/a" when every replication of the cell failed).
[[nodiscard]] std::string ci_str(std::span<const RunMetrics> reps,
                                 const MetricFn& fn, int precision = 2);

// Environment knobs shared by all benches:
//   WMN_REPS     — replications per point (default `default_reps`)
//   WMN_THREADS  — worker threads (default: hardware concurrency)
//   WMN_QUICK    — if set, shrink traffic time to 15 s for smoke runs
// Malformed or non-positive values fall back to the default with a
// warning on stderr instead of being silently misread.
[[nodiscard]] std::size_t env_reps(std::size_t default_reps);
[[nodiscard]] unsigned env_threads();
void apply_quick_mode(ScenarioConfig& cfg);

}  // namespace wmn::exp
