// Shared scaffolding for the figure/table reproduction binaries.
//
// Every bench flattens its whole sweep (point × protocol × replication)
// into one exp::SweepEngine, drains it with run_sweep(), then renders
// a paper-style series table to stdout and writes the same data as CSV
// under the results directory. Benches run WMN_CHECK under kLogAndCount:
// a replication that trips an invariant (or throws) becomes a failed
// slot in the sweep report instead of killing the campaign.
//
// Failed slots and the per-slot record (docs/TOOLING.md): every sweep
// bench rewrites ${WMN_RESULTS_DIR:-results}/JOURNAL_<id>.jsonl with
// one line per clean slot, writes the failure taxonomy to
// SWEEP_<id>.json, and exits non-zero when any slot failed. A bench
// takes no arguments; any argument exits 1 before the sweep runs.
//
// Environment knobs:
//   WMN_REPS=N          replications per point (default 2)
//   WMN_THREADS=N       worker threads (default: hardware concurrency)
//   WMN_QUICK=1         shrink traffic time for smoke runs
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/check.hpp"
#include "exp/sweep.hpp"
#include "results_dir.hpp"
#include "stats/table.hpp"

namespace wmnbench {

using namespace wmn;  // bench binaries are leaf executables

// T1 reference configuration: the operating point every sweep perturbs.
// Chosen from the source group's 2009-2012 WMN evaluations: 1000x1000 m
// area, ~100 mesh routers on a perturbed grid, 10 CBR flows of 512-byte
// packets, 2 Mb/s PHY abstraction, 250 m nominal radio range.
inline exp::ScenarioConfig base_config() {
  exp::ScenarioConfig cfg;
  cfg.n_nodes = 100;
  cfg.area_width_m = 1000.0;
  cfg.area_height_m = 1000.0;
  cfg.placement = exp::Placement::kPerturbedGrid;
  cfg.placement_jitter_m = 60.0;
  cfg.traffic.n_flows = 10;
  cfg.traffic.rate_pps = 4.0;
  cfg.traffic.packet_bytes = 512;
  cfg.warmup = sim::Time::seconds(5.0);
  cfg.traffic_time = sim::Time::seconds(25.0);
  cfg.drain = sim::Time::seconds(2.0);
  cfg.seed = 1000;
  exp::apply_quick_mode(cfg);
  return cfg;
}

struct BenchEnv {
  std::string id;  // bench identifier ("F2", ...) — names the record
  std::size_t reps = 2;
  unsigned threads = 1;
};

inline BenchEnv announce(const std::string& id, const std::string& title,
                         int argc = 0, char** argv = nullptr) {
  // Long campaigns: one bad replication taints its own slot instead of
  // aborting the binary (docs/TOOLING.md, "The sweep engine: one drain +
  // failure containment").
  core::set_check_policy(core::CheckPolicy::kLogAndCount);
  BenchEnv env;
  env.id = id;
  env.reps = exp::env_reps(2);
  env.threads = exp::env_threads();
  // Refuse rather than run the whole campaign: an argument a bench
  // ignored would look like it had been honoured.
  if (argc > 1) {
    std::fprintf(stderr, "[wmn] %s: unexpected argument '%s' (a bench "
                         "takes none)\n",
                 id.c_str(), argv[1]);
    std::exit(1);
  }
  std::cout << "\n=== " << id << ": " << title << " ===\n"
            << "(replications per point: " << env.reps
            << ", threads: " << env.threads
            << "; values are mean +-95% CI half-width)\n\n";
  return env;
}

// Point the sweep's per-slot record at results/JOURNAL_<id>.jsonl and
// drain it. Call once, after every add_cell(). A record that cannot be
// opened or written ends the bench with a message and exit 1, after the
// banner already printed has been flushed.
inline void run_sweep(exp::SweepEngine& sweep, const BenchEnv& env) {
  sweep.enable_journal(results_path("JOURNAL_" + env.id + ".jsonl"));
  std::cout.flush();
  try {
    sweep.run();
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "[wmn] %s: %s\n", env.id.c_str(), e.what());
    std::exit(1);
  }
}

// Prints the table and writes its CSV. Returns the bench's exit code:
// 1 when the CSV cannot be written, so a lost result never exits green.
[[nodiscard]] inline int finish(const stats::Table& table,
                                const std::string& csv_name) {
  table.print(std::cout);
  // CSVs land under results/ (WMN_RESULTS_DIR to override) instead of
  // the invocation CWD, so runs from the repo root cannot litter it.
  const std::string csv_path = results_path(csv_name);
  const bool written = table.save_csv(csv_path);
  if (written) {
    std::cout << "\n[csv written: " << csv_path << "]\n";
  } else {
    std::fprintf(stderr, "[wmn] cannot write csv %s\n", csv_path.c_str());
  }
  std::cout.flush();
  return written ? 0 : 1;
}

// Machine-readable sweep summary (SWEEP_<id>.json): slot totals and the
// per-FailureKind taxonomy counts CI folds into its step summary.
// Returns false when the file cannot be written.
[[nodiscard]] inline bool write_sweep_summary(const exp::SweepEngine& sweep,
                                              const BenchEnv& env) {
  const std::string path = results_path("SWEEP_" + env.id + ".json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[wmn] cannot write sweep summary %s\n", path.c_str());
    return false;
  }
  const exp::FailureCounts counts = sweep.failure_counts();
  std::fprintf(f,
               "{\"bench\":\"%s\",\"slots\":%zu,\"failed\":%zu,"
               "\"counts\":{",
               env.id.c_str(), sweep.task_count(), sweep.failed_count());
  for (std::size_t k = 0; k < exp::kFailureKindCount; ++k) {
    std::fprintf(f, "%s\"%s\":%zu", k == 0 ? "" : ",",
                 exp::failure_kind_name(static_cast<exp::FailureKind>(k)),
                 counts[k]);
  }
  std::fprintf(f, "}}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "[wmn] cannot write sweep summary %s\n", path.c_str());
    return false;
  }
  std::cout << "[sweep summary written: " << path << "]\n";
  return true;
}

// Sweep-aware variant: surfaces failed replication slots next to the
// table they were excluded from, writes the taxonomy summary, and
// returns the bench's exit code — non-zero when the CSV or the summary
// cannot be written, or on any failed slot, so a quietly degraded
// campaign can never look green in CI.
[[nodiscard]] inline int finish(const stats::Table& table,
                                const std::string& csv_name,
                                const exp::SweepEngine& sweep,
                                const BenchEnv& env) {
  const int csv_rc = finish(table, csv_name);
  const bool summary_written = write_sweep_summary(sweep, env);
  const std::size_t failed = sweep.failed_count();
  if (failed > 0) {
    std::cout << "\n[WARNING: " << failed << " of " << sweep.task_count()
              << " replication(s) failed; their slots are excluded above]\n"
              << sweep.failure_report();
    std::cout.flush();
    return 1;
  }
  std::cout.flush();
  return (csv_rc != 0 || !summary_written) ? 1 : 0;
}

}  // namespace wmnbench
