// F2 — packet delivery ratio vs network size.
//
// Expected shape: at low density all protocols deliver comparably
// (flooding slightly ahead on reachability); as density grows, RREQ
// storms cost the flooding baselines collisions and queue losses while
// CLNLR holds its PDR.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("F2", "packet delivery ratio vs nodes", argc, argv);

  const std::vector<std::size_t> node_counts{50, 100, 150, 200};
  std::vector<std::string> cols{"nodes"};
  for (core::Protocol p : core::headline_protocols()) {
    cols.push_back(core::protocol_name(p));
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
          exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.pdr; }, 3));
    }
    table.add_row(std::move(row));
  }
  return finish(table, "f2_pdr_nodes.csv", sweep, env);
}
