// F5 — packet delivery ratio vs number of concurrent flows.
//
// Congestion scaling at fixed per-flow rate: more flows = more
// simultaneous discoveries and more forwarding load. Expected shape:
// CLNLR degrades most gracefully; flooding collapses fastest because
// every additional flow's discovery storms the same channel.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("F5", "packet delivery ratio vs flow count", argc, argv);

  const std::vector<std::size_t> flow_counts{5, 10, 15, 20, 25};
  std::vector<std::string> cols{"flows"};
  for (core::Protocol p : core::headline_protocols()) {
    cols.push_back(core::protocol_name(p));
  }
  stats::Table table(cols);

  exp::SweepEngine sweep(env.threads);
  std::vector<std::size_t> cells;
  for (std::size_t flows : flow_counts) {
    for (core::Protocol p : core::headline_protocols()) {
      exp::ScenarioConfig cfg = base_config();
      cfg.traffic.n_flows = flows;
      cfg.traffic.rate_pps = 6.0;
      cfg.protocol = p;
      cells.push_back(sweep.add_cell(
          cfg, env.reps,
          std::to_string(flows) + " flows, " + core::protocol_name(p)));
    }
  }
  run_sweep(sweep, env);

  auto cell = cells.cbegin();
  for (std::size_t flows : flow_counts) {
    std::vector<std::string> row{std::to_string(flows)};
    for ([[maybe_unused]] core::Protocol p : core::headline_protocols()) {
      const auto reps = sweep.cell_metrics(*cell++);
      row.push_back(
          exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.pdr; }, 3));
    }
    table.add_row(std::move(row));
  }
  return finish(table, "f5_pdr_flows.csv", sweep, env);
}
