// F3 — mean end-to-end delay vs offered load.
//
// Expected shape: all protocols share a low-delay plateau at light
// load; the delay knee (queueing + discovery churn) arrives earliest
// for blind flooding and latest for CLNLR, whose discovery throttling
// keeps the medium clearer and whose route selection avoids queueing
// hotspots.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("F3", "mean end-to-end delay vs offered load", argc, argv);

  const std::vector<double> rates{2.0, 4.0, 6.0, 8.0, 12.0};
  std::vector<std::string> cols{"pkt/s per flow"};
  for (core::Protocol p : core::headline_protocols()) {
    cols.push_back(core::protocol_name(p) + " (ms)");
  }
  stats::Table table(cols);

  exp::SweepEngine sweep(env.threads);
  std::vector<std::size_t> cells;
  for (double rate : rates) {
    for (core::Protocol p : core::headline_protocols()) {
      exp::ScenarioConfig cfg = base_config();
      cfg.traffic.rate_pps = rate;
      cfg.protocol = p;
      cells.push_back(sweep.add_cell(
          cfg, env.reps,
          stats::Table::num(rate, 0) + " pkt/s, " + core::protocol_name(p)));
    }
  }
  run_sweep(sweep, env);

  auto cell = cells.cbegin();
  for (double rate : rates) {
    std::vector<std::string> row{stats::Table::num(rate, 0)};
    for ([[maybe_unused]] core::Protocol p : core::headline_protocols()) {
      const auto reps = sweep.cell_metrics(*cell++);
      row.push_back(exp::ci_str(
          reps, [](const exp::RunMetrics& m) { return m.mean_delay_ms; }, 0));
    }
    table.add_row(std::move(row));
  }
  return finish(table, "f3_delay_load.csv", sweep, env);
}
