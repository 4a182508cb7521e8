// Shared scaffolding for the bench binaries: the T1 reference
// configuration every experiment perturbs, and where results land.
//
// Every bench prints a paper-style table to stdout and writes the same
// data as CSV under ${WMN_RESULTS_DIR:-results} (relative to the
// invocation CWD, so `build/results/` when run from the build tree),
// never into the current directory.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "exp/sweep.hpp"
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

// `filename` under the results directory, which is created on demand.
inline std::string results_path(const std::string& filename) {
  // Bench-harness output path selection; never touches simulation state.
  // NOLINTNEXTLINE(wmn-nondeterminism,concurrency-mt-unsafe)
  const char* env = std::getenv("WMN_RESULTS_DIR");
  const std::filesystem::path dir =
      (env != nullptr && *env != '\0') ? env : "results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; write reports
  return (dir / filename).string();
}

// Prints the table and writes its CSV. Returns the bench's exit code:
// 1 when the CSV cannot be written, so a lost result never exits green.
[[nodiscard]] inline int finish(const stats::Table& table,
                                const std::string& csv_name) {
  table.print(std::cout);
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

}  // namespace wmnbench
