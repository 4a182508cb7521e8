// F4 — aggregate delivered throughput vs offered load.
//
// Expected shape: linear region at light load for everyone; saturation
// hits blind flooding first (its RREQ storms consume the channel), so
// CLNLR's saturation throughput sits highest and degrades most
// gracefully past the knee.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("F4", "aggregate throughput vs offered load", argc, argv);

  const std::vector<double> rates{2.0, 4.0, 6.0, 8.0, 12.0};
  std::vector<std::string> cols{"pkt/s per flow", "offered (kb/s)"};
  for (core::Protocol p : core::headline_protocols()) {
    cols.push_back(core::protocol_name(p) + " (kb/s)");
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
    const auto base = base_config();
    const double offered_kbps = rate *
                                static_cast<double>(base.traffic.n_flows) *
                                static_cast<double>(base.traffic.packet_bytes) *
                                8.0 / 1e3;
    std::vector<std::string> row{stats::Table::num(rate, 0),
                                 stats::Table::num(offered_kbps, 0)};
    for ([[maybe_unused]] core::Protocol p : core::headline_protocols()) {
      const auto reps = sweep.cell_metrics(*cell++);
      row.push_back(exp::ci_str(
          reps, [](const exp::RunMetrics& m) { return m.throughput_kbps; }, 0));
    }
    table.add_row(std::move(row));
  }
  return finish(table, "f4_throughput_load.csv", sweep, env);
}
