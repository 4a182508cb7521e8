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
// alongside the results.
//
// Run supervision (all off by default):
//   * set_rep_deadline    — wall-clock watchdog per replication; a hung
//                           run is cooperatively cancelled and reported
//                           kDeadlineExceeded (see exp::Watchdog for
//                           why this is the one sanctioned wall clock).
//   * ScenarioConfig::event_budget — deterministic per-run guard; a
//                           livelocked config fails kEventBudgetExhausted
//                           identically on every host.
//   * set_retry_limit     — transient kinds (deadline, bad_alloc) are
//                           re-executed with the same seed; deterministic
//                           kinds never are.
//   * enable_journal      — checkpoint/resume: every clean slot is
//                           appended to a JSONL journal as it completes,
//                           and a resume run re-executes only the slots
//                           the journal doesn't cover (see exp/journal.hpp
//                           for the identity checks).
//   * set_sweep_event_budget — cumulative cross-slot event ceiling; the
//                           deterministic way to stop a sweep partway
//                           (CI's kill-mid-sweep resume smoke uses it).
//
// Seeds are derived by replication_seed(base, point, rep) — a pure
// SplitMix64 function of the indices — so results are bit-identical
// regardless of thread count, task execution order, or how many
// resume runs it took to fill every slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <span>
#include <thread>
#include <vector>

#include "exp/failure.hpp"
#include "exp/metrics.hpp"
#include "exp/scenario.hpp"
#include "exp/supervision.hpp"
#include "sim/cancel_token.hpp"
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

// The seed of replication `rep` of sweep cell `point`, derived from the
// cell's base seed. Pure function of its arguments: the same sweep
// produces the same seeds whether it runs on 1 thread or 64, in any
// task order. Two mixing rounds keep distinct (point, rep) pairs from
// colliding even for adjacent base seeds.
[[nodiscard]] constexpr std::uint64_t replication_seed(std::uint64_t base_seed,
                                                       std::uint64_t point,
                                                       std::uint64_t rep) {
  return splitmix64(splitmix64(base_seed ^ (point * 0xBF58476D1CE4E5B9ULL)) +
                    rep);
}

// One replication slot of a sweep cell. ok() means clean metrics;
// otherwise `kind` says exactly how the slot failed (kCheckTaint keeps
// its metrics for inspection but they are excluded from statistics).
struct RepOutcome {
  std::uint64_t seed = 0;
  std::optional<RunMetrics> metrics;
  std::string error;                    // empty iff ok()
  FailureKind kind = FailureKind::kNone;
  unsigned attempts = 0;  // executions consumed; 0 = restored from journal
  bool restored = false;  // loaded from the resume journal, not re-run

  [[nodiscard]] bool ok() const { return metrics.has_value() && error.empty(); }
};

// Flattened sweep over its own workers. Usage (every bench binary):
//   SweepEngine sweep(env.threads);
//   ... add_cell() for every point × protocol ...   (phase 1)
//   ... supervision knobs, enable_journal() ...
//   sweep.run();                                    (drain, once)
//   ... cell_metrics(id) to render rows ...         (phase 2)
class SweepEngine {
 public:
  explicit SweepEngine(unsigned threads);

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;
  virtual ~SweepEngine();

  // Enqueue one sweep cell: n_reps replications of cfg. The returned
  // id indexes cell()/cell_metrics() after run(). The label (e.g. the
  // protocol name) makes failure reports readable.
  std::size_t add_cell(const ScenarioConfig& cfg, std::size_t n_reps,
                       std::string label = {});

  // --- supervision knobs (set before run()) ---------------------------

  // Wall-clock deadline per replication attempt, in seconds; 0 (the
  // default) disables the watchdog entirely.
  void set_rep_deadline(double seconds);

  // How many times a *transient* failure (kDeadlineExceeded, kBadAlloc)
  // is re-executed with the same seed before the slot is given up.
  // Deterministic failures are never retried. Default: 1.
  void set_retry_limit(unsigned retries) { retry_limit_ = retries; }

  // Cumulative event ceiling across the whole sweep: once the summed
  // sim_event_count of completed slots reaches `total_events`, every
  // remaining slot fails kEventBudgetExhausted without running.
  // Deterministic for threads == 1 (slots complete in index order) —
  // the reproducible "kill the sweep partway" switch resume tests and
  // the CI smoke are built on. 0 (default) = off.
  void set_sweep_event_budget(std::uint64_t total_events) {
    sweep_event_budget_ = total_events;
  }

  // Checkpoint journal at `path`: every clean slot is appended (and
  // flushed) as it completes. With `resume`, run() first loads every
  // record whose identity checks out (see exp/journal.hpp) and
  // re-executes only the rest; a parseable record for a *different*
  // sweep (config digest or seed mismatch, out-of-range slot) makes
  // run() throw rather than mix experiments, while a damaged line is
  // skipped with a warning and its slot re-runs.
  void enable_journal(std::string path, bool resume);

  // Drain every queued replication: min(threads, unfinished slots)
  // workers take slots from one atomic index; with one worker the
  // slots run inline, in index order, on the calling thread. Call once.
  void run();

  // All replication slots of a cell, in replication order.
  [[nodiscard]] std::span<const RepOutcome> cell(std::size_t id) const;

  // Metrics of the cell's *successful* replications, in order.
  [[nodiscard]] std::vector<RunMetrics> cell_metrics(std::size_t id) const;

  [[nodiscard]] std::size_t task_count() const;
  [[nodiscard]] std::size_t failed_count() const;

  // Slots satisfied from the resume journal instead of executing.
  [[nodiscard]] std::size_t resumed_count() const { return resumed_; }

  // Slot counts per FailureKind (index 0, kNone, counts clean slots).
  [[nodiscard]] FailureCounts failure_counts() const;

  // Human-readable report of every failed slot; empty string if clean.
  [[nodiscard]] std::string failure_report() const;

 protected:
  // One replication attempt: build, run, aggregate. `cancel` is this
  // attempt's cooperative cancellation token (null when the watchdog is
  // off). Virtual so tests can substitute bodies that throw, hang, or
  // spin without a full Scenario.
  [[nodiscard]] virtual RunMetrics execute(const ScenarioConfig& cfg,
                                           sim::CancelToken* cancel);

 private:
  struct Cell {
    std::string label;
    ScenarioConfig cfg;
    std::uint64_t digest = 0;  // config_digest(cfg), the journal identity
    std::size_t first = 0;     // index of rep 0 in outcomes_
    std::size_t n_reps = 0;
  };

  void run_slot(std::size_t cell_id, std::size_t rep);
  void load_journal();
  void journal_append(std::size_t cell_id, std::size_t rep,
                      const RunMetrics& metrics);

  unsigned threads_;
  // Supervisor for set_rep_deadline(); its thread starts on the first
  // lease, so an unsupervised sweep never starts it.
  Watchdog watchdog_;
  std::vector<Cell> cells_;
  std::vector<RepOutcome> outcomes_;  // flattened, cell-major
  bool ran_ = false;

  double rep_deadline_s_ = 0.0;
  unsigned retry_limit_ = 1;
  std::uint64_t sweep_event_budget_ = 0;
  // Summed sim_event_count of completed slots (journal-restored ones
  // included): the sweep-budget odometer.
  std::atomic<std::uint64_t> sweep_events_{0};

  std::string journal_path_;
  bool journal_enabled_ = false;
  bool resume_ = false;
  std::size_t resumed_ = 0;
  std::FILE* journal_file_ = nullptr;  // append handle while run() drains
  std::mutex journal_mu_;
};

// Run `n_reps` independent replications of `base` across `threads`
// workers, seeded replication_seed(base.seed, 0, i).
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

// Supervision knobs, applied to an engine before run():
//   WMN_DEADLINE_S         — per-replication wall deadline (seconds)
//   WMN_RETRIES            — transient-failure retry limit (0 allowed)
//   WMN_SWEEP_EVENT_BUDGET — cumulative sweep event ceiling
//   WMN_RESUME             — if set (or force_resume), load the journal
// The journal itself is enabled whenever `journal_path` is non-empty.
void apply_supervision_env(SweepEngine& sweep, const std::string& journal_path,
                           bool force_resume = false);

}  // namespace wmn::exp
