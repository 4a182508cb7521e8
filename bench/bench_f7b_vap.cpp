// F7b — velocity-aware discovery under mobility (extension experiment,
// reconstructing the group's VAP comparison).
//
// Random-waypoint clients at increasing speed; AODV-VAP excludes fast
// movers from route construction. Expected shape: at speed 0 VAP equals
// flooding; as speed rises VAP's RREQ economy improves and its routes
// (built from slower nodes) break less often per delivered packet.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("F7b", "velocity-aware discovery vs mobility", argc, argv);

  const std::vector<core::Protocol> protocols{
      core::Protocol::kAodvFlood, core::Protocol::kAodvGossip,
      core::Protocol::kAodvVap, core::Protocol::kClnlr};
  const std::vector<double> speeds{0.0, 5.0, 10.0, 20.0};

  std::vector<std::string> cols{"max speed (m/s)"};
  for (core::Protocol p : protocols) {
    cols.push_back(core::protocol_name(p) + " PDR");
    cols.push_back(core::protocol_name(p) + " RREQ tx");
  }
  stats::Table table(cols);

  exp::SweepEngine sweep(env.threads);
  std::vector<std::size_t> cells;
  for (double speed : speeds) {
    for (core::Protocol p : protocols) {
      exp::ScenarioConfig cfg = base_config();
      cfg.traffic.rate_pps = 6.0;
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
    for ([[maybe_unused]] core::Protocol p : protocols) {
      const auto reps = sweep.cell_metrics(*cell++);
      row.push_back(
          exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.pdr; }, 3));
      row.push_back(exp::ci_str(
          reps,
          [](const exp::RunMetrics& m) { return static_cast<double>(m.rreq_tx); },
          0));
    }
    table.add_row(std::move(row));
  }
  return finish(table, "f7b_vap_mobility.csv", sweep, env);
}
