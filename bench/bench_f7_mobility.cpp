// F7 — PDR and routing overhead vs node mobility (random waypoint).
//
// The "velocity niche" experiment: mesh clients move at increasing
// maximum speed, multiplying link breakages and re-discoveries.
// Expected shape: overhead grows with speed for every protocol while
// PDR falls; CLNLR keeps an overhead margin over flooding at a PDR
// within a few points of it (the group's velocity-aware papers report
// exactly this trade).
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("F7", "PDR and overhead vs max node speed (RWP)", argc, argv);

  const std::vector<double> speeds{0.0, 5.0, 10.0, 20.0};
  std::vector<std::string> cols{"max speed (m/s)"};
  for (core::Protocol p : core::headline_protocols()) {
    cols.push_back(core::protocol_name(p) + " PDR");
    cols.push_back(core::protocol_name(p) + " RREQ/s");
  }
  stats::Table table(cols);

  exp::SweepEngine sweep(env.threads);
  std::vector<std::size_t> cells;
  for (double speed : speeds) {
    for (core::Protocol p : core::headline_protocols()) {
      exp::ScenarioConfig cfg = base_config();
      cfg.traffic.rate_pps = 6.0;  // the congestion operating point
      cfg.mobility.max_speed_mps = speed;
      cfg.mobility.pause = sim::Time::seconds(2.0);
      cfg.protocol = p;
      cells.push_back(sweep.add_cell(
          cfg, env.reps,
          stats::Table::num(speed, 0) + " m/s, " + core::protocol_name(p)));
    }
  }
  run_sweep(sweep, env);

  auto cell = cells.cbegin();
  for (double speed : speeds) {
    std::vector<std::string> row{stats::Table::num(speed, 0)};
    for ([[maybe_unused]] core::Protocol p : core::headline_protocols()) {
      const auto reps = sweep.cell_metrics(*cell++);
      row.push_back(
          exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.pdr; }, 3));
      const auto base = base_config();
      const double window =
          base.traffic_time.to_seconds() + base.warmup.to_seconds();
      row.push_back(exp::ci_str(
          reps,
          [window](const exp::RunMetrics& m) {
            return static_cast<double>(m.rreq_tx) / window;
          },
          1));
    }
    table.add_row(std::move(row));
  }
  return finish(table, "f7_mobility.csv", sweep, env);
}
