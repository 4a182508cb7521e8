// T2 — head-to-head summary at the reference operating point
// (100 nodes, 10 flows, 6 pkt/s: just past the congestion knee, where
// the protocols differentiate). All six protocols including ablations.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("T2", "protocol summary at the reference point", argc, argv);

  stats::Table table({"protocol", "PDR", "delay (ms)", "thpt (kb/s)",
                      "RREQ/disc", "NRL", "collisions", "q-drops"});

  exp::SweepEngine sweep(env.threads);
  std::vector<std::size_t> cells;
  for (core::Protocol p : core::all_protocols()) {
    exp::ScenarioConfig cfg = base_config();
    cfg.traffic.rate_pps = 6.0;
    cfg.protocol = p;
    cells.push_back(sweep.add_cell(cfg, env.reps, core::protocol_name(p)));
  }
  run_sweep(sweep, env);

  auto cell = cells.cbegin();
  for (core::Protocol p : core::all_protocols()) {
    const auto reps = sweep.cell_metrics(*cell++);
    table.add_row(
        {core::protocol_name(p),
         exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.pdr; }, 3),
         exp::ci_str(reps,
                     [](const exp::RunMetrics& m) { return m.mean_delay_ms; }, 0),
         exp::ci_str(
             reps, [](const exp::RunMetrics& m) { return m.throughput_kbps; }, 0),
         exp::ci_str(
             reps, [](const exp::RunMetrics& m) { return m.rreq_per_discovery; },
             1),
         exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.nrl; }, 1),
         exp::ci_str(
             reps,
             [](const exp::RunMetrics& m) {
               return static_cast<double>(m.phy_collisions);
             },
             0),
         exp::ci_str(
             reps,
             [](const exp::RunMetrics& m) {
               return static_cast<double>(m.mac_queue_drops);
             },
             0)});
  }
  return finish(table, "t2_summary.csv", sweep, env);
}
