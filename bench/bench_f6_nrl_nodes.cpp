// F6 — normalized routing load vs network size.
//
// NRL = control-packet transmissions per delivered data packet, shown
// both in full and with the (protocol-independent) HELLO beacons
// excluded. Expected shape: flooding's on-demand NRL grows superlinearly
// with density; CLNLR's stays lowest and flattest.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("F6", "normalized routing load vs nodes", argc, argv);

  const std::vector<std::size_t> node_counts{50, 100, 150, 200};
  std::vector<std::string> cols{"nodes"};
  for (core::Protocol p : core::headline_protocols()) {
    cols.push_back(core::protocol_name(p) + " NRL");
    cols.push_back(core::protocol_name(p) + " (no hello)");
  }
  stats::Table table(cols);

  exp::SweepEngine sweep(env.threads);
  std::vector<std::size_t> cells;
  for (std::size_t n : node_counts) {
    for (core::Protocol p : core::headline_protocols()) {
      exp::ScenarioConfig cfg = base_config();
      cfg.n_nodes = n;
      cfg.traffic.rate_pps = 6.0;  // the congestion operating point
      cfg.protocol = p;
      cells.push_back(sweep.add_cell(
          cfg, env.reps,
          std::to_string(n) + " nodes, " + core::protocol_name(p)));
    }
  }
  run_sweep(sweep, env);

  auto cell = cells.cbegin();
  for (std::size_t n : node_counts) {
    std::vector<std::string> row{std::to_string(n)};
    for ([[maybe_unused]] core::Protocol p : core::headline_protocols()) {
      const auto reps = sweep.cell_metrics(*cell++);
      row.push_back(
          exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.nrl; }, 1));
      row.push_back(exp::ci_str(
          reps, [](const exp::RunMetrics& m) { return m.nrl_on_demand; }, 1));
    }
    table.add_row(std::move(row));
  }
  return finish(table, "f6_nrl_nodes.csv", sweep, env);
}
