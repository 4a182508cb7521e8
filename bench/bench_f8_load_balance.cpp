// F8 — forwarding-load distribution under gateway-oriented traffic.
//
// WMN backhaul workload: every flow targets one of two gateway nodes,
// funnelling traffic toward one corner of the mesh. Plotted: Jain
// fairness of per-node forwarding counts and the peak-to-mean hotspot
// factor. Expected shape: hop-count routing (AODV-BF) funnels through
// the same few centre nodes (low Jain, high peak); CLNLR's load-aware
// selection spreads forwarding across parallel paths.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("F8", "forwarding-load balance, gateway traffic", argc, argv);

  stats::Table table({"protocol", "Jain (active)", "peak/mean", "active nodes",
                      "PDR", "delay (ms)", "fwd total"});

  exp::SweepEngine sweep(env.threads);
  std::vector<std::size_t> cells;
  for (core::Protocol p : core::headline_protocols()) {
    exp::ScenarioConfig cfg = base_config();
    cfg.traffic.pattern = exp::TrafficSpec::Pattern::kGateway;
    cfg.traffic.n_gateways = 2;
    cfg.traffic.n_flows = 12;
    cfg.traffic.rate_pps = 6.0;
    cfg.protocol = p;
    cells.push_back(sweep.add_cell(cfg, env.reps, core::protocol_name(p)));
  }
  run_sweep(sweep, env);

  auto cell = cells.cbegin();
  for (core::Protocol p : core::headline_protocols()) {
    const auto reps = sweep.cell_metrics(*cell++);
    double fwd_total = 0.0;
    for (const auto& m : reps) {
      for (double f : m.per_node_forwarded) fwd_total += f;
    }
    if (!reps.empty()) fwd_total /= static_cast<double>(reps.size());
    table.add_row(
        {core::protocol_name(p),
         exp::ci_str(reps,
                     [](const exp::RunMetrics& m) { return m.forwarding_jain; }, 3),
         exp::ci_str(
             reps,
             [](const exp::RunMetrics& m) { return m.forwarding_peak_to_mean; },
             2),
         exp::ci_str(
             reps,
             [](const exp::RunMetrics& m) {
               return static_cast<double>(m.forwarding_active_nodes);
             },
             0),
         exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.pdr; }, 3),
         exp::ci_str(reps,
                     [](const exp::RunMetrics& m) { return m.mean_delay_ms; }, 0),
         stats::Table::num(fwd_total, 0)});
  }
  return finish(table, "f8_load_balance.csv", sweep, env);
}
