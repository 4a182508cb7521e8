// F9 — energy efficiency (extension experiment).
//
// Radio energy per delivered payload kilobit at the reference
// congestion point. Control-packet storms burn energy twice: the
// transmissions themselves and the retries/collisions they provoke.
// Expected shape: CLNLR delivers the cheapest bits; blind flooding the
// most expensive.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("F9", "energy per delivered kilobit", argc, argv);

  stats::Table table({"protocol", "total J", "J/node", "mJ/kbit", "PDR"});

  exp::SweepEngine sweep(env.threads);
  std::vector<std::size_t> cells;
  for (core::Protocol p : core::headline_protocols()) {
    exp::ScenarioConfig cfg = base_config();
    cfg.traffic.rate_pps = 6.0;
    cfg.protocol = p;
    cells.push_back(sweep.add_cell(cfg, env.reps, core::protocol_name(p)));
  }
  run_sweep(sweep, env);

  auto cell = cells.cbegin();
  for (core::Protocol p : core::headline_protocols()) {
    const auto reps = sweep.cell_metrics(*cell++);
    table.add_row(
        {core::protocol_name(p),
         exp::ci_str(reps,
                     [](const exp::RunMetrics& m) { return m.total_energy_j; }, 0),
         exp::ci_str(
             reps, [](const exp::RunMetrics& m) { return m.mean_node_energy_j; },
             1),
         exp::ci_str(
             reps, [](const exp::RunMetrics& m) { return m.energy_mj_per_kbit; },
             1),
         exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.pdr; }, 3)});
  }
  return finish(table, "f9_energy.csv", sweep, env);
}
