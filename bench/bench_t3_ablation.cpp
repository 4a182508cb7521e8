// T3 — CLNLR ablation: which half of the mechanism buys what?
//
//   CLNLR-RD: load-adaptive discovery only (stock route selection)
//   CLNLR-RS: load-aware route selection only (blind-flood discovery)
//   CLNLR:    both
//
// Expected: discovery throttling dominates the overhead savings
// (RREQ/disc, collisions); route selection dominates the PDR/delay
// gains under load; the full protocol combines both.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("T3", "CLNLR ablation at the reference point", argc, argv);

  const std::vector<core::Protocol> protocols{
      core::Protocol::kAodvFlood, core::Protocol::kClnlrRdOnly,
      core::Protocol::kClnlrRsOnly, core::Protocol::kClnlr};

  stats::Table table({"protocol", "PDR", "delay (ms)", "RREQ tx", "RREQ/disc",
                      "NRL", "collisions", "avg hops"});

  exp::SweepEngine sweep(env.threads);
  std::vector<std::size_t> cells;
  for (core::Protocol p : protocols) {
    exp::ScenarioConfig cfg = base_config();
    cfg.traffic.rate_pps = 6.0;
    cfg.protocol = p;
    cells.push_back(sweep.add_cell(cfg, env.reps, core::protocol_name(p)));
  }
  run_sweep(sweep, env);

  auto cell = cells.cbegin();
  for (core::Protocol p : protocols) {
    const auto reps = sweep.cell_metrics(*cell++);
    table.add_row(
        {core::protocol_name(p),
         exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.pdr; }, 3),
         exp::ci_str(reps,
                     [](const exp::RunMetrics& m) { return m.mean_delay_ms; }, 0),
         exp::ci_str(
             reps,
             [](const exp::RunMetrics& m) {
               return static_cast<double>(m.rreq_tx);
             },
             0),
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
         exp::ci_str(reps,
                     [](const exp::RunMetrics& m) { return m.avg_path_hops; }, 1)});
  }
  return finish(table, "t3_ablation.csv", sweep, env);
}
