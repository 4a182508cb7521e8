// T4 — sensitivity of CLNLR's design choices (the ablation benches
// DESIGN.md calls out beyond the RD/RS split):
//
//   (a) probability floor p_min — too high wastes suppression, too low
//       risks discovery holes that the rescue must patch;
//   (b) destination reply window — 0 degenerates to first-arrival
//       selection, large adds discovery latency for better paths;
//   (c) expanding-ring search on top of CLNLR (RFC 3561 option).
//
// All at the reference congestion point (100 nodes, 10 flows, 6 pkt/s).
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("T4", "CLNLR design-choice sensitivity", argc, argv);

  stats::Table table({"variant", "PDR", "delay (ms)", "RREQ tx", "NRL",
                      "collisions"});

  exp::ScenarioConfig base = base_config();
  base.traffic.rate_pps = 6.0;
  base.protocol = core::Protocol::kClnlr;

  // Phase 1: enqueue every variant.
  std::vector<std::string> labels;
  exp::SweepEngine sweep(env.threads);
  std::vector<std::size_t> cells;
  const auto add = [&](const std::string& label,
                       const exp::ScenarioConfig& cfg) {
    labels.push_back(label);
    cells.push_back(sweep.add_cell(cfg, env.reps, label));
  };

  // (a) probability floor.
  for (double p_min : {0.2, 0.35, 0.5, 0.65}) {
    exp::ScenarioConfig cfg = base;
    cfg.options.clnlr.p_min = p_min;
    add("p_min=" + stats::Table::num(p_min, 2), cfg);
  }

  // (b) reply window: rebuild the selection policy via AodvConfig is
  // not exposed; the window lives in BestMetricSelection's default.
  // Exposed knob: compare against the CLNLR-RD ablation (window = 0).
  {
    exp::ScenarioConfig cfg = base;
    cfg.protocol = core::Protocol::kClnlrRdOnly;
    add("reply window=0 (CLNLR-RD)", cfg);
  }

  // (c) expanding-ring search.
  {
    exp::ScenarioConfig cfg = base;
    cfg.options.aodv.expanding_ring = true;
    add("with expanding-ring RREQ", cfg);
  }
  {
    exp::ScenarioConfig cfg = base;
    cfg.protocol = core::Protocol::kAodvFlood;
    cfg.options.aodv.expanding_ring = true;
    add("AODV-BF + expanding-ring", cfg);
  }

  run_sweep(sweep, env);

  // Phase 2: render one row per variant.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto reps = sweep.cell_metrics(cells[i]);
    table.add_row(
        {labels[i],
         exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.pdr; }, 3),
         exp::ci_str(reps,
                     [](const exp::RunMetrics& m) { return m.mean_delay_ms; }, 0),
         exp::ci_str(
             reps,
             [](const exp::RunMetrics& m) {
               return static_cast<double>(m.rreq_tx);
             },
             0),
         exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.nrl; }, 1),
         exp::ci_str(
             reps,
             [](const exp::RunMetrics& m) {
               return static_cast<double>(m.phy_collisions);
             },
             0)});
  }

  return finish(table, "t4_sensitivity.csv", sweep, env);
}
